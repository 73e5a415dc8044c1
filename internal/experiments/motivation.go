package experiments

import (
	"fmt"

	"qvr/internal/foveation"
	"qvr/internal/gpu"
	"qvr/internal/motion"
	"qvr/internal/pipeline"
	"qvr/internal/scene"
	"qvr/internal/vec"
)

// Fig3Row is one application's latency breakdown under a design.
type Fig3Row struct {
	App       string
	Breakdown pipeline.StageBreakdown
	FPS       float64
	TotalMS   float64
}

// Fig3Result reproduces Fig. 3: system latency and FPS for local-only
// (a) and remote-only (b) rendering across the Table 1 applications.
type Fig3Result struct {
	Local  []Fig3Row
	Remote []Fig3Row
}

// Fig3 runs the motivation study.
func Fig3(o Options) Fig3Result {
	o = o.fill()
	apps := scene.Table1Apps
	runs := materialize(2*len(apps), func(i int) pipeline.Config {
		d := pipeline.LocalOnly
		if i%2 == 1 {
			d = pipeline.RemoteOnly
		}
		return o.config(d, apps[i/2])
	})

	row := func(app scene.App, res pipeline.Result) Fig3Row {
		return Fig3Row{
			App: app.Name, Breakdown: res.Breakdown(), FPS: res.FPS(),
			TotalMS: res.AvgMTPSeconds() * 1000,
		}
	}
	r := Fig3Result{Local: make([]Fig3Row, len(apps)), Remote: make([]Fig3Row, len(apps))}
	for i, app := range apps {
		r.Local[i] = row(app, runs[2*i])
		r.Remote[i] = row(app, runs[2*i+1])
	}
	return r
}

// Render formats the two panels.
func (r Fig3Result) Render() string {
	head := []string{"App", "Track", "Send", "Render", "Transmit", "Decode", "ATW", "Display", "Total(ms)", "FPS"}
	row := func(x Fig3Row) []string {
		b := x.Breakdown
		return []string{
			x.App, ms(b.Tracking), ms(b.Sending), ms(b.Rendering),
			ms(b.Transmit), ms(b.Decode), ms(b.ATW), ms(b.Display),
			fmt.Sprintf("%.1f", x.TotalMS), fmt.Sprintf("%.0f", x.FPS),
		}
	}
	var lrows, rrows [][]string
	for _, x := range r.Local {
		lrows = append(lrows, row(x))
	}
	for _, x := range r.Remote {
		rrows = append(rrows, row(x))
	}
	return "Fig.3(a) local-only rendering (stage latencies in ms)\n" +
		table(head, lrows) +
		"\nFig.3(b) remote-only rendering (stage latencies in ms)\n" +
		table(head, rrows)
}

// Table1Row characterizes static collaborative rendering for one app.
type Table1Row struct {
	App         string
	Resolution  string
	Triangles   int
	Interactive string
	FMin, FMax  float64
	AvgLocalMS  float64
	MinLocalMS  float64
	MaxLocalMS  float64
	BackSizeKB  float64
	RemoteMS    float64
}

// Table1Result reproduces Table 1.
type Table1Result struct{ Rows []Table1Row }

// Table1 measures static collaboration across the Table 1 apps.
func Table1(o Options) Table1Result {
	o = o.fill()
	apps := scene.Table1Apps
	runs := materialize(len(apps), func(i int) pipeline.Config {
		return o.config(pipeline.StaticCollab, apps[i])
	})
	out := Table1Result{Rows: make([]Table1Row, 0, len(apps))}
	for i, res := range runs {
		app := apps[i]
		row := Table1Row{
			App:         app.Name,
			Resolution:  fmt.Sprintf("%dx%d", app.Width, app.Height),
			Triangles:   app.Triangles,
			Interactive: app.InteractiveDesc,
			FMin:        app.FMin, FMax: app.FMax,
			MinLocalMS: 1e18,
		}
		var sumLocal, sumBytes, sumRemote float64
		for _, f := range res.Frames {
			l := f.LocalRenderSeconds * 1000
			sumLocal += l
			if l < row.MinLocalMS {
				row.MinLocalMS = l
			}
			if l > row.MaxLocalMS {
				row.MaxLocalMS = l
			}
			sumBytes += float64(f.BytesSent)
			sumRemote += f.TransferSeconds
		}
		n := float64(len(res.Frames))
		row.AvgLocalMS = sumLocal / n
		row.BackSizeKB = sumBytes / n / 1024
		row.RemoteMS = sumRemote / n * 1000
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Render formats Table 1.
func (r Table1Result) Render() string {
	head := []string{"App", "Resolution", "#Tri", "Interactive", "f range", "Avg Tlocal", "Min", "Max", "Back KB", "Tremote"}
	var rows [][]string
	for _, x := range r.Rows {
		rows = append(rows, []string{
			x.App, x.Resolution, fmt.Sprintf("%d", x.Triangles), x.Interactive,
			fmt.Sprintf("%.0f%%-%.0f%%", x.FMin*100, x.FMax*100),
			fmt.Sprintf("%.1fms", x.AvgLocalMS),
			fmt.Sprintf("%.1f", x.MinLocalMS),
			fmt.Sprintf("%.1f", x.MaxLocalMS),
			fmt.Sprintf("%.0f", x.BackSizeKB),
			fmt.Sprintf("%.1fms", x.RemoteMS),
		})
	}
	return "Table 1: static collaborative rendering characterization\n" + table(head, rows)
}

// Fig5Row is one interaction distance point.
type Fig5Row struct {
	DistanceM float64
	LatencyMS float64
}

// Fig5Result reproduces Fig. 5: the Nature tree's render latency as
// the user approaches (paper anchors: 12, 15, 26 ms).
type Fig5Result struct{ Rows []Fig5Row }

// Fig5 measures interaction-distance sensitivity.
func Fig5(o Options) Fig5Result {
	o.fill()
	app, _ := scene.AppByName("Nature")
	st := scene.NewState(app)
	cfg := gpu.MobileDefault()
	var out Fig5Result
	for _, dist := range []float64{6, 2, 0.3} {
		s := motion.Sample{
			Head:         motion.Pose{Orientation: vec.IdentityQuat()},
			InteractDist: dist,
		}
		fs := st.Frame(s)
		// The interactive object's local render cost under static
		// collaboration (the f share of the frame).
		w := gpu.FrameWorkload(app, fs, fs.InteractiveShare, 1)
		out.Rows = append(out.Rows, Fig5Row{
			DistanceM: dist,
			LatencyMS: cfg.RenderSeconds(w) * 1000,
		})
	}
	return out
}

// Render formats Fig. 5.
func (r Fig5Result) Render() string {
	head := []string{"Distance(m)", "Interactive-object latency(ms)"}
	var rows [][]string
	for _, x := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("%.1f", x.DistanceM), fmt.Sprintf("%.1f", x.LatencyMS)})
	}
	return "Fig.5: interaction distance vs render latency (Nature tree)\n" + table(head, rows)
}

// Fig6Point is one eccentricity sample for one scene complexity.
type Fig6Point struct {
	E1        float64
	LatencyMS float64
}

// Fig6Series is one scene complexity curve.
type Fig6Series struct {
	Name   string
	Points []Fig6Point
}

// Fig6Result reproduces Fig. 6: foveal layer rendering latency under
// increasing eccentricity for three scene complexities, plus the
// relative transmitted frame size.
type Fig6Result struct {
	Series []Fig6Series
	// FrameSize is the relative transmitted size per eccentricity.
	FrameSize []Fig6Point
	// MaxBudgetE1 is the largest sampled e1 whose heaviest-scene
	// latency stays within the 11 ms budget (the paper finds ~15).
	MaxBudgetE1 float64
}

// Fig6 sweeps the foveal radius.
func Fig6(o Options) Fig6Result {
	o.fill()
	complexities := []struct {
		name string
		tris int
	}{
		{"400 objects 4k tri", 1_600_000},
		{"800 objects 4k tri", 3_200_000},
		{"400 objects 8k tri", 3_200_000 + 1}, // same count, heavier shading below
	}
	base, _ := scene.AppByName("Foveated3D")
	cfg := gpu.MobileDefault()
	disp := foveation.DefaultDisplay
	part := foveation.NewPartitioner(disp)

	var out Fig6Result
	out.MaxBudgetE1 = 5
	for ci, c := range complexities {
		app := base
		app.Triangles = c.tris
		if ci == 2 {
			app.ShadingCost = base.ShadingCost * 1.25
		}
		st := scene.NewState(app)
		fs := st.Frame(motion.Sample{Head: motion.Pose{Orientation: vec.IdentityQuat()}, InteractDist: 5})
		series := Fig6Series{Name: c.name}
		budgetOK := true
		for e1 := 5.0; e1 <= 35; e1 += 2.5 {
			p, err := part.Partition(e1, 0, 0)
			if err != nil {
				continue
			}
			foveaPixels := p.FoveaAreaFraction * float64(app.PixelsPerFrame())
			w := gpu.Workload{
				Triangles:    float64(fs.VisibleTriangles) * p.FoveaAreaFraction,
				Fragments:    foveaPixels * app.Overdraw,
				ShadingCost:  app.ShadingCost,
				BytesTouched: foveaPixels * 10,
			}
			lat := cfg.RenderSeconds(w) * 1000
			series.Points = append(series.Points, Fig6Point{E1: e1, LatencyMS: lat})
			if lat > 11 {
				budgetOK = false
			}
			if budgetOK && e1 > out.MaxBudgetE1 && ci == len(complexities)-1 {
				out.MaxBudgetE1 = e1
			}
		}
		out.Series = append(out.Series, series)
	}
	// Relative frame size: transmitted periphery pixels vs full frame.
	for e1 := 5.0; e1 <= 35; e1 += 2.5 {
		p, err := part.Partition(e1, 0, 0)
		if err != nil {
			continue
		}
		rel := (float64(p.Fovea.Pixels) + float64(p.PeripheryPixels)) / float64(disp.TotalPixels())
		out.FrameSize = append(out.FrameSize, Fig6Point{E1: e1, LatencyMS: rel})
	}
	return out
}

// Render formats Fig. 6.
func (r Fig6Result) Render() string {
	head := []string{"e1(deg)"}
	for _, s := range r.Series {
		head = append(head, s.Name+"(ms)")
	}
	head = append(head, "rel.size")
	var rows [][]string
	if len(r.Series) > 0 {
		for i, p := range r.Series[0].Points {
			row := []string{fmt.Sprintf("%.1f", p.E1)}
			for _, s := range r.Series {
				row = append(row, fmt.Sprintf("%.1f", s.Points[i].LatencyMS))
			}
			if i < len(r.FrameSize) {
				row = append(row, fmt.Sprintf("%.2f", r.FrameSize[i].LatencyMS))
			}
			rows = append(rows, row)
		}
	}
	return fmt.Sprintf("Fig.6: foveal rendering latency vs eccentricity (budget holds to e1=%.1f)\n", r.MaxBudgetE1) +
		table(head, rows)
}
