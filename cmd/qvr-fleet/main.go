// Command qvr-fleet runs a concurrent multi-session fleet simulation:
// N heterogeneous Q-VR client sessions sharing one remote render
// cluster and their access networks, executed across a bounded worker
// pool.
//
// Usage:
//
//	qvr-fleet -sessions 64 -workers 8 -mix mixed -frames 120
//	qvr-fleet -sessions 32 -gpus 2 -format json
//	qvr-fleet -sessions 16 -net lte -format csv > fleet.csv
//	qvr-fleet -sessions 1000 -fidelity 0.05
//
// Mixes: mixed, flagship, congested. Designs: local, remote, static,
// ffr, dfr, qvr-sw, qvr. With -fidelity, most sessions run through
// the calibrated analytic surrogate and a stratified exact-DES sample
// cross-checks it; the error bars print under the summary, and a
// surrogate past its tolerance fails the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qvr/internal/cliout"
	"qvr/internal/fleet"
	"qvr/internal/gpu"
	"qvr/internal/netsim"
	"qvr/internal/obs"
	"qvr/internal/obs/series"
	"qvr/internal/pipeline"
	"qvr/internal/surrogate"
)

// netAliases accepts the short spellings alongside the Table 2 names.
var netAliases = map[string]string{
	"wifi": "Wi-Fi", "lte": "4G LTE", "4g": "4G LTE", "5g": "Early 5G",
}

func main() {
	sessions := flag.Int("sessions", 16, "number of client sessions")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = all cores)")
	mixName := flag.String("mix", "mixed", "fleet population: "+strings.Join(fleet.MixNames(), " "))
	netName := flag.String("net", "", "force every session onto one network (wifi lte 5g, or a Table 2 name)")
	frames := flag.Int("frames", 120, "measured frames per session")
	warmup := flag.Int("warmup", 40, "warmup frames per session")
	designName := flag.String("design", "qvr", "rendering design: local remote static ffr dfr qvr-sw qvr")
	seed := flag.Int64("seed", 1, "fleet base seed")
	gpus := flag.Int("gpus", 0, "shared remote cluster size; 0 disables admission (uncontended per-session clusters)")
	cell := flag.Int("cell", 0, "sessions per network cell before bandwidth sharing; 0 = uncontended")
	fidelity := flag.Float64("fidelity", 0, "mixed-fidelity exact-sample fraction (0 = every session on exact DES)")
	calibration := flag.Int("calibration", 0, "surrogate calibration runs per session class (0 = default)")
	format := flag.String("format", "table", "output format: "+cliout.FormatNames())
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	obsFlags := cliout.AddObsFlags()
	flag.Parse()

	stopProfiles, err := cliout.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fail("%v", err)
	}
	defer stopProfiles()

	form, err := cliout.ParseFormat(*format)
	if err != nil {
		fail("%v", err)
	}
	design, ok := pipeline.DesignByName(*designName)
	if !ok {
		fail("unknown design %q", *designName)
	}
	mix, ok := fleet.MixByName(*mixName)
	if !ok {
		fail("unknown mix %q (have: %s)", *mixName, strings.Join(fleet.MixNames(), " "))
	}
	specs, err := mix.Specs(*sessions, design, *frames, *warmup, *seed)
	if err != nil {
		fail("%v", err)
	}
	if *netName != "" {
		name := *netName
		if full, ok := netAliases[strings.ToLower(name)]; ok {
			name = full
		}
		cond, ok := netsim.ConditionByName(name)
		if !ok {
			fail("unknown network %q", *netName)
		}
		for i := range specs {
			specs[i].Config.Network = cond
		}
	}

	cfg := fleet.Config{Specs: specs, Workers: *workers, CellCapacity: *cell}
	if *gpus > 0 {
		cfg.Admission = fleet.Admission{Cluster: gpu.DefaultRemote().WithGPUs(*gpus)}
	}
	if *fidelity > 0 {
		if *fidelity > 1 {
			fail("-fidelity must be in (0, 1], got %g", *fidelity)
		}
		cfg.Fidelity = &fleet.Fidelity{
			Runner:        surrogate.New(),
			ExactFraction: *fidelity,
			Calibration:   *calibration,
		}
	}
	cfg.Obs = obsFlags.Registry()
	cfg.Tracer = obsFlags.Tracer()
	cfg.TraceLabel = "fleet"
	rec := obsFlags.Recorder(series.Meta{Tool: "qvr-fleet"})

	r := fleet.Run(cfg)
	if rec != nil {
		// A bare fleet run has no scenario clock: the whole run is one
		// window at t=0.
		sum := r.Summarize()
		var clusters []fleet.ClusterLoad
		if g := r.Contention.Grid; g != nil {
			clusters = g.Clusters
		}
		gauges := series.GaugesOf(sum, clusters)
		if f := r.Fidelity; f != nil {
			gauges.Fidelity = &series.FidelityGauge{
				Exact:     f.ExactSessions,
				Surrogate: f.SurrogateSessions,
				MaxError:  f.MaxError,
				Refuted:   f.Refuted,
			}
		}
		rec.EndWindow(series.Window{Label: "fleet", Gauges: gauges})
	}
	switch form {
	case cliout.Table:
		printTable(r)
	case cliout.JSON:
		printJSON(r)
	case cliout.CSV:
		printCSV(r)
	}
	obsFlags.Finish("qvr-fleet", fleet.Expectations(r))
	// Refute-and-refine, the failing half: the report above carries
	// the error bars either way, but a surrogate past its declared
	// tolerance must fail the run, not just annotate it.
	if err := obs.RefuteSurrogate(r.RefuteChecks()); err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...interface{}) {
	cliout.Fail("qvr-fleet", format, args...)
}

func printTable(r fleet.Result) {
	fmt.Printf("%-20s %-8s %7s %-9s %8s %8s %6s %8s %10s\n",
		"session", "app", "GPU", "network", "MTP(ms)", "p99(ms)", "FPS", "e1(deg)", "KB/frame")
	for _, sr := range r.Sessions {
		cfg, st := sr.Config, sr.Stats
		fmt.Printf("%-20s %-8s %5.0fMHz %-9s %8.1f %8.1f %6.0f %8.1f %10.1f\n",
			sr.Name, cfg.App.Name, cfg.GPU.FrequencyMHz, cfg.Network.Name,
			st.AvgMTPSeconds*1000, st.PercentileMTP(0.99)*1000,
			st.FPS, st.AvgE1, st.AvgBytesSent/1024)
	}
	for _, sp := range r.Dropped {
		fmt.Printf("%-20s %-8s %s\n", sp.Name, sp.Config.App.Name, "DROPPED (cluster full)")
	}
	fmt.Println()
	fmt.Println(r)
	for _, ln := range cliout.FidelityLines(r.Fidelity) {
		fmt.Println(ln)
	}
}

// jsonSessionRow is the per-session slice of the JSON report.
type jsonSessionRow struct {
	Name       string  `json:"name"`
	App        string  `json:"app"`
	GPUMHz     float64 `json:"gpu_mhz"`
	Network    string  `json:"network"`
	AvgMTPMs   float64 `json:"avg_mtp_ms"`
	P99MTPMs   float64 `json:"p99_mtp_ms"`
	FPS        float64 `json:"fps"`
	AvgE1Deg   float64 `json:"avg_e1_deg"`
	KBPerFrame float64 `json:"kb_per_frame"`
}

func printJSON(r fleet.Result) {
	report := struct {
		Summary  fleet.Summary         `json:"summary"`
		Fidelity *fleet.FidelityReport `json:"fidelity,omitempty"`
		Sessions []jsonSessionRow      `json:"sessions"`
		Dropped  []string              `json:"dropped"`
	}{
		Summary:  r.Summarize(),
		Fidelity: r.Fidelity,
		Dropped:  []string{},
	}
	for _, sr := range r.Sessions {
		cfg, st := sr.Config, sr.Stats
		report.Sessions = append(report.Sessions, jsonSessionRow{
			Name:       sr.Name,
			App:        cfg.App.Name,
			GPUMHz:     cfg.GPU.FrequencyMHz,
			Network:    cfg.Network.Name,
			AvgMTPMs:   st.AvgMTPSeconds * 1000,
			P99MTPMs:   st.PercentileMTP(0.99) * 1000,
			FPS:        st.FPS,
			AvgE1Deg:   st.AvgE1,
			KBPerFrame: st.AvgBytesSent / 1024,
		})
	}
	for _, sp := range r.Dropped {
		report.Dropped = append(report.Dropped, sp.Name)
	}
	if err := cliout.WriteJSON(os.Stdout, report); err != nil {
		fail("%v", err)
	}
}

func printCSV(r fleet.Result) {
	w := cliout.NewCSV(os.Stdout,
		"session", "app", "gpu_mhz", "network", "avg_mtp_ms", "p99_mtp_ms",
		"fps", "avg_e1_deg", "kb_per_frame", "status")
	for _, sr := range r.Sessions {
		cfg, st := sr.Config, sr.Stats
		w.Row(sr.Name, cfg.App.Name,
			fmt.Sprintf("%.0f", cfg.GPU.FrequencyMHz), cfg.Network.Name,
			fmt.Sprintf("%.3f", st.AvgMTPSeconds*1000),
			fmt.Sprintf("%.3f", st.PercentileMTP(0.99)*1000),
			fmt.Sprintf("%.2f", st.FPS),
			fmt.Sprintf("%.2f", st.AvgE1),
			fmt.Sprintf("%.2f", st.AvgBytesSent/1024), "ok")
	}
	for _, sp := range r.Dropped {
		w.Row(sp.Name, sp.Config.App.Name,
			fmt.Sprintf("%.0f", sp.Config.GPU.FrequencyMHz), sp.Config.Network.Name,
			"", "", "", "", "", "dropped")
	}
}
