package experiments

import (
	"fmt"

	"qvr/internal/liwc"
	"qvr/internal/mcpat"
	"qvr/internal/netsim"
	"qvr/internal/pipeline"
	"qvr/internal/scene"
	"qvr/internal/uca"
)

// Fig12Row is one benchmark's normalized results.
type Fig12Row struct {
	App string
	// Speedups over the local-only baseline (end-to-end latency).
	Static, FFR, DFR, QVR float64
	// FPS improvements over the local-only baseline for the software
	// implementation and full Q-VR (the two line series).
	SWFPS, QVRFPS float64
}

// Fig12Result reproduces Fig. 12.
type Fig12Result struct {
	Rows []Fig12Row
	// Averages across the suite.
	AvgQVR, MaxQVR, AvgStatic, AvgFFR, AvgDFR float64
	// QVROverStaticFPS is the headline 4.1x-class frame-rate ratio.
	QVROverStaticFPS float64
	// QVROverSWFPS is the hardware-over-software frame-rate ratio.
	QVROverSWFPS float64
}

// fig12Designs are the per-app runs of Fig. 12, in unpacking order.
var fig12Designs = []pipeline.Design{
	pipeline.LocalOnly, pipeline.StaticCollab, pipeline.FFR,
	pipeline.DFR, pipeline.QVRSoftware, pipeline.QVR,
}

// Fig12 runs the overall-performance comparison.
func Fig12(o Options) Fig12Result {
	o = o.fill()
	apps, nd := scene.EvalApps, len(fig12Designs)
	runs := stream(len(apps)*nd, func(i int) pipeline.Config {
		return o.config(fig12Designs[i%nd], apps[i/nd])
	})

	out := Fig12Result{Rows: make([]Fig12Row, 0, len(apps))}
	var qvrFPSsum, staticFPSsum, swFPSsum float64
	for i, app := range apps {
		r := runs[i*nd:]
		local, static, ffr, dfr, sw, qvr := r[0], r[1], r[2], r[3], r[4], r[5]

		base := local.AvgMTPSeconds()
		row := Fig12Row{
			App:    app.Name,
			Static: base / static.AvgMTPSeconds(),
			FFR:    base / ffr.AvgMTPSeconds(),
			DFR:    base / dfr.AvgMTPSeconds(),
			QVR:    base / qvr.AvgMTPSeconds(),
			SWFPS:  sw.FPS() / local.FPS(),
			QVRFPS: qvr.FPS() / local.FPS(),
		}
		out.Rows = append(out.Rows, row)
		out.AvgQVR += row.QVR
		out.AvgStatic += row.Static
		out.AvgFFR += row.FFR
		out.AvgDFR += row.DFR
		if row.QVR > out.MaxQVR {
			out.MaxQVR = row.QVR
		}
		qvrFPSsum += qvr.FPS()
		staticFPSsum += static.FPS()
		swFPSsum += sw.FPS()
	}
	n := float64(len(out.Rows))
	out.AvgQVR /= n
	out.AvgStatic /= n
	out.AvgFFR /= n
	out.AvgDFR /= n
	out.QVROverStaticFPS = qvrFPSsum / staticFPSsum
	out.QVROverSWFPS = qvrFPSsum / swFPSsum
	return out
}

// Render formats Fig. 12.
func (r Fig12Result) Render() string {
	head := []string{"App", "Static", "FFR", "DFR", "Q-VR", "SW-FPS", "QVR-FPS"}
	var rows [][]string
	for _, x := range r.Rows {
		rows = append(rows, []string{
			x.App, ratio(x.Static), ratio(x.FFR), ratio(x.DFR), ratio(x.QVR),
			ratio(x.SWFPS), ratio(x.QVRFPS),
		})
	}
	return "Fig.12: normalized performance over local-only rendering\n" +
		table(head, rows) +
		fmt.Sprintf("Avg: static=%s ffr=%s dfr=%s qvr=%s (max %s); FPS qvr/static=%s qvr/sw=%s\n",
			ratio(r.AvgStatic), ratio(r.AvgFFR), ratio(r.AvgDFR), ratio(r.AvgQVR), ratio(r.MaxQVR),
			ratio(r.QVROverStaticFPS), ratio(r.QVROverSWFPS))
}

// Fig13Row is one benchmark's transmission metrics.
type Fig13Row struct {
	App string
	// Normalized transmitted data size vs remote-only rendering.
	Static, FFR, QVR float64
	// ResolutionReduction is Q-VR's rendered-pixel reduction.
	ResolutionReduction float64
}

// Fig13Result reproduces Fig. 13.
type Fig13Result struct {
	Rows []Fig13Row
	// QVROverStaticReduction is the headline ~85% transmit reduction.
	QVROverStaticReduction float64
	AvgResolutionReduction float64
}

// fig13Designs are the per-app runs of Fig. 13, in unpacking order.
var fig13Designs = []pipeline.Design{
	pipeline.RemoteOnly, pipeline.StaticCollab, pipeline.FFR, pipeline.QVR,
}

// Fig13 measures transmitted data and resolution reduction.
func Fig13(o Options) Fig13Result {
	o = o.fill()
	apps, nd := scene.EvalApps, len(fig13Designs)
	runs := stream(len(apps)*nd, func(i int) pipeline.Config {
		return o.config(fig13Designs[i%nd], apps[i/nd])
	})

	out := Fig13Result{Rows: make([]Fig13Row, 0, len(apps))}
	var q, s float64
	for i, app := range apps {
		r := runs[i*nd:]
		remote := r[0].AvgBytesSent()
		static := r[1].AvgBytesSent()
		ffr := r[2].AvgBytesSent()
		qvr := r[3]
		row := Fig13Row{
			App:                 app.Name,
			Static:              static / remote,
			FFR:                 ffr / remote,
			QVR:                 qvr.AvgBytesSent() / remote,
			ResolutionReduction: qvr.AvgResolutionReduction(),
		}
		out.Rows = append(out.Rows, row)
		out.AvgResolutionReduction += row.ResolutionReduction
		q += qvr.AvgBytesSent()
		s += static
	}
	out.AvgResolutionReduction /= float64(len(out.Rows))
	out.QVROverStaticReduction = 1 - q/s
	return out
}

// Render formats Fig. 13.
func (r Fig13Result) Render() string {
	head := []string{"App", "Static", "FFR", "Q-VR", "Res.Reduction"}
	var rows [][]string
	for _, x := range r.Rows {
		rows = append(rows, []string{
			x.App, fmt.Sprintf("%.2f", x.Static), fmt.Sprintf("%.2f", x.FFR),
			fmt.Sprintf("%.2f", x.QVR), pct(x.ResolutionReduction),
		})
	}
	return "Fig.13: transmitted data normalized to remote-only rendering\n" +
		table(head, rows) +
		fmt.Sprintf("Q-VR transmit reduction vs static: %s; avg resolution reduction: %s\n",
			pct(r.QVROverStaticReduction), pct(r.AvgResolutionReduction))
}

// Fig14Series is one benchmark's per-frame convergence trace.
type Fig14Series struct {
	App          string
	LatencyRatio []float64 // T_remote / T_local per frame
	FPS          []float64 // stage FPS per frame
	E1           []float64
}

// Fig14Result reproduces Fig. 14: latency-ratio and FPS over 300
// frames, starting from e1 = 5.
type Fig14Result struct{ Series []Fig14Series }

// Fig14Apps are the high-resolution benchmarks plotted in Fig. 14.
var Fig14Apps = []string{"Doom3-H", "HL2-H", "GRID", "UT3", "Wolf"}

// Fig14 captures the convergence traces.
func Fig14(o Options) Fig14Result {
	o = o.fill()
	runs := materialize(len(Fig14Apps), func(i int) pipeline.Config {
		app, _ := scene.AppByName(Fig14Apps[i])
		cfg := o.config(pipeline.QVR, app)
		cfg.Warmup = 0 // the convergence transient is the point
		cfg.Frames = 300
		return cfg
	})
	out := Fig14Result{Series: make([]Fig14Series, len(runs))}
	for i, res := range runs {
		n := len(res.Frames)
		s := Fig14Series{App: Fig14Apps[i], LatencyRatio: make([]float64, n), FPS: make([]float64, n), E1: make([]float64, n)}
		for j, f := range res.Frames {
			s.LatencyRatio[j], s.FPS[j], s.E1[j] = f.LatencyRatio(), f.StageFPS, f.E1
		}
		out.Series[i] = s
	}
	return out
}

// Render formats sampled points of the Fig. 14 series.
func (r Fig14Result) Render() string {
	head := []string{"Frame"}
	for _, s := range r.Series {
		head = append(head, s.App+" ratio", s.App+" fps")
	}
	var rows [][]string
	for _, idx := range []int{0, 5, 10, 20, 50, 100, 200, 299} {
		row := []string{fmt.Sprintf("%d", idx)}
		for _, s := range r.Series {
			if idx < len(s.LatencyRatio) {
				row = append(row, fmt.Sprintf("%.2f", s.LatencyRatio[idx]), fmt.Sprintf("%.0f", s.FPS[idx]))
			} else {
				row = append(row, "-", "-")
			}
		}
		rows = append(rows, row)
	}
	return "Fig.14: latency ratio (T_remote/T_local) and FPS across frames\n" + table(head, rows)
}

// Table4Cell is the steady-state eccentricity for one configuration.
type Table4Cell struct {
	FreqMHz  float64
	Network  string
	App      string
	AvgE1    float64
	MeetsFPS bool
}

// Table4Result reproduces Table 4.
type Table4Result struct{ Cells []Table4Cell }

// Table4Freqs and Table4Nets are the swept configurations.
var (
	Table4Freqs = []float64{500, 400, 300}
	Table4Nets  = []netsim.Condition{netsim.WiFi, netsim.LTE4G, netsim.Early5G}
)

// table4Runs is the size of the Table 4 sweep.
func table4Runs() int { return len(Table4Freqs) * len(Table4Nets) * len(scene.EvalApps) }

// table4At decodes index i of the Table 4 sweep (frequency-major, then
// network, then app) into its frequency, network and app indices.
func table4At(i int) (f, n, a int) {
	apps := len(scene.EvalApps)
	return i / (len(Table4Nets) * apps), i / apps % len(Table4Nets), i % apps
}

// table4Config is the Q-VR config of Table 4 sweep index i.
func (o Options) table4Config(i int) pipeline.Config {
	f, n, a := table4At(i)
	cfg := o.config(pipeline.QVR, scene.EvalApps[a])
	cfg.GPU = cfg.GPU.WithFrequency(Table4Freqs[f])
	cfg.Network = Table4Nets[n]
	return cfg
}

// Table4 sweeps GPU frequency and network condition.
func Table4(o Options) Table4Result {
	o = o.fill()
	runs := stream(table4Runs(), o.table4Config)

	out := Table4Result{Cells: make([]Table4Cell, len(runs))}
	for i, res := range runs {
		f, n, a := table4At(i)
		out.Cells[i] = Table4Cell{
			FreqMHz: Table4Freqs[f], Network: Table4Nets[n].Name, App: scene.EvalApps[a].Name,
			AvgE1:    res.AvgE1(),
			MeetsFPS: res.FPS() >= 85,
		}
	}
	return out
}

// Render formats Table 4 (an asterisk marks configurations that fail
// the 90 Hz target, the paper's underline).
func (r Table4Result) Render() string {
	head := []string{"Freq", "Network"}
	for _, app := range scene.EvalApps {
		head = append(head, app.Name)
	}
	var rows [][]string
	for _, freq := range Table4Freqs {
		for _, net := range Table4Nets {
			row := []string{fmt.Sprintf("%.0fMHz", freq), net.Name}
			for _, app := range scene.EvalApps {
				for _, c := range r.Cells {
					if c.FreqMHz == freq && c.Network == net.Name && c.App == app.Name {
						mark := ""
						if !c.MeetsFPS {
							mark = "*"
						}
						row = append(row, fmt.Sprintf("%.1f%s", c.AvgE1, mark))
					}
				}
			}
			rows = append(rows, row)
		}
	}
	return "Table 4: steady-state eccentricity e1 (* = misses 90Hz)\n" + table(head, rows)
}

// Fig15Cell is one configuration's normalized energy.
type Fig15Cell struct {
	FreqMHz    float64
	Network    string
	App        string
	Normalized float64 // Q-VR energy / local-only energy
}

// Fig15Result reproduces Fig. 15.
type Fig15Result struct {
	Cells []Fig15Cell
	// AvgReduction is the headline ~73% mean energy reduction.
	AvgReduction float64
}

// Fig15 sweeps energy across configurations. The local-only baseline
// does not depend on the network, so it runs once per (frequency, app)
// and is shared across the network sweep.
func Fig15(o Options) Fig15Result {
	o = o.fill()
	apps := len(scene.EvalApps)
	nLocal := len(Table4Freqs) * apps
	runs := stream(nLocal+table4Runs(), func(i int) pipeline.Config {
		if i >= nLocal {
			return o.table4Config(i - nLocal)
		}
		cfg := o.config(pipeline.LocalOnly, scene.EvalApps[i%apps])
		cfg.GPU = cfg.GPU.WithFrequency(Table4Freqs[i/apps])
		return cfg
	})
	local, qvr := runs[:nLocal], runs[nLocal:]

	out := Fig15Result{Cells: make([]Fig15Cell, len(qvr))}
	var sum float64
	for i, res := range qvr {
		f, n, a := table4At(i)
		norm := res.AvgEnergyJoules() / local[f*apps+a].AvgEnergyJoules()
		out.Cells[i] = Fig15Cell{
			FreqMHz: Table4Freqs[f], Network: Table4Nets[n].Name, App: scene.EvalApps[a].Name, Normalized: norm,
		}
		sum += norm
	}
	out.AvgReduction = 1 - sum/float64(len(out.Cells))
	return out
}

// Render formats Fig. 15.
func (r Fig15Result) Render() string {
	head := []string{"Freq", "Network"}
	for _, app := range scene.EvalApps {
		head = append(head, app.Name)
	}
	var rows [][]string
	for _, freq := range Table4Freqs {
		for _, net := range Table4Nets {
			row := []string{fmt.Sprintf("%.0fMHz", freq), net.Name}
			for _, app := range scene.EvalApps {
				for _, c := range r.Cells {
					if c.FreqMHz == freq && c.Network == net.Name && c.App == app.Name {
						row = append(row, fmt.Sprintf("%.2f", c.Normalized))
					}
				}
			}
			rows = append(rows, row)
		}
	}
	return "Fig.15: Q-VR system energy normalized to local-only rendering\n" +
		table(head, rows) +
		fmt.Sprintf("Average energy reduction: %s\n", pct(r.AvgReduction))
}

// OverheadResult reproduces the Section 4.3 design-overhead analysis.
type OverheadResult struct {
	LIWC          mcpat.Report
	UCA           mcpat.Report
	LIWCTableKB   int
	UCATileCycles int
	UCAFrameMS    float64 // stereo 1920x2160 frame on the default config
}

// Overhead computes the hardware overhead summary.
func Overhead(Options) OverheadResult {
	u := uca.Default()
	return OverheadResult{
		LIWC:          mcpat.LIWCReport(liwc.TableBytes(), 500),
		UCA:           mcpat.UCAReport(500),
		LIWCTableKB:   liwc.TableBytes() / 1024,
		UCATileCycles: u.CyclesTrilinear,
		UCAFrameMS:    u.FrameSeconds(1920, 2160, 0.25) * 1000,
	}
}

// Render formats the overhead analysis.
func (r OverheadResult) Render() string {
	return fmt.Sprintf(`Section 4.3: design overhead analysis (45nm, 500MHz)
LIWC: table %dKB, area %.2f mm2, power %.1f mW
UCA:  area %.2f mm2, power %.1f mW, %d cycles per 32x32 tile
      stereo 1920x2160 frame in %.2f ms on 2 units
`,
		r.LIWCTableKB, r.LIWC.AreaMM2, r.LIWC.PowerWatt*1000,
		r.UCA.AreaMM2, r.UCA.PowerWatt*1000, r.UCATileCycles, r.UCAFrameMS)
}
