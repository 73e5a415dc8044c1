// Command qvr-scenario executes a declarative time-phased workload
// scenario on the fleet engine: diurnal load curves, flash crowds,
// network brownouts, remote-cluster outages with failover, user
// churn.
//
// Usage:
//
//	qvr-scenario -builtin flash-crowd
//	qvr-scenario -builtin cluster-outage-failover -format json
//	qvr-scenario -file myday.scn -workers 8 -format csv > phases.csv
//	qvr-scenario -list
//
// Scenario files are sectioned key=value text; see the README or
// internal/scenario for the format. Reports are deterministic: the
// same scenario produces byte-identical output for any -workers
// value, run after run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qvr/internal/cliout"
	"qvr/internal/fleet"
	"qvr/internal/scenario"
)

func main() {
	file := flag.String("file", "", "scenario file to run")
	builtin := flag.String("builtin", "", "built-in scenario: "+strings.Join(scenario.BuiltinNames(), " "))
	list := flag.Bool("list", false, "list built-in scenarios and exit")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = all cores; never affects results)")
	frames := flag.Int("frames", 0, "override measured frames per session per phase (0 = scenario setting)")
	warmup := flag.Int("warmup", -1, "override warmup frames per session per phase (-1 = scenario setting)")
	seed := flag.Int64("seed", -1, "override the scenario base seed (-1 = scenario setting)")
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

	if *list {
		for _, name := range scenario.BuiltinNames() {
			sc, err := scenario.Builtin(name)
			if err != nil {
				fail("%v", err)
			}
			// Grid scenarios run here too, but their per-cluster story
			// needs qvr-edge; say so instead of hiding the topology.
			grid := ""
			if n := len(sc.Topology.Clusters); n > 0 {
				grid = fmt.Sprintf(", %d-cluster grid (see qvr-edge)", n)
			}
			fidelity := ""
			if f := sc.Fidelity; f != nil {
				fidelity = fmt.Sprintf(", [fidelity] fast path (%.2f%% exact)", f.ExactFraction*100)
			}
			fmt.Printf("%-24s %d phases, mix %s%s%s\n", name, len(sc.Phases), sc.Mix, grid, fidelity)
		}
		return
	}

	form, err := cliout.ParseFormat(*format)
	if err != nil {
		fail("%v", err)
	}

	var sc scenario.Scenario
	switch {
	case *file != "" && *builtin != "":
		fail("-file and -builtin are mutually exclusive")
	case *file != "":
		sc, err = scenario.ParseFile(*file)
	case *builtin != "":
		sc, err = scenario.Builtin(*builtin)
	default:
		fail("need -file, -builtin or -list (built-ins: %s)", strings.Join(scenario.BuiltinNames(), " "))
	}
	if err != nil {
		fail("%v", err)
	}
	if *seed >= 0 {
		sc.Seed = *seed
	}

	opt := scenario.Options{Workers: *workers, FramesOverride: *frames}
	if *warmup >= 0 {
		opt.WarmupOverride = scenario.Warmup(*warmup)
	}
	opt.Obs = obsFlags.Registry()
	opt.Tracer = obsFlags.Tracer()
	opt.Series = obsFlags.Recorder(sc.SeriesMeta("qvr-scenario"))
	r, err := scenario.Run(sc, opt)
	if err != nil {
		fail("%v", err)
	}
	switch form {
	case cliout.Table:
		printTable(r)
	case cliout.JSON:
		printJSON(r)
	case cliout.CSV:
		printCSV(r)
	}
	obsFlags.Finish("qvr-scenario", scenario.Expectations(r))
}

func fail(format string, args ...interface{}) {
	cliout.Fail("qvr-scenario", format, args...)
}

func printTable(r scenario.Result) {
	sc := r.Scenario
	fmt.Printf("scenario %s: mix %s, design %s, seed %d", sc.Name, sc.Mix, sc.Design, sc.Seed)
	if sc.GPUs >= 0 {
		fmt.Printf(", shared cluster %d GPUs", sc.GPUs)
	}
	fmt.Println()
	fmt.Printf("%-14s %7s %6s %6s %4s %4s %5s %5s %8s %8s %8s %6s %6s\n",
		"phase", "start", "dur", "active", "arr", "dep", "drop", "fail",
		"p50(ms)", "p95(ms)", "p99(ms)", "mFPS", "share")
	for _, p := range r.Phases {
		s := p.Summary.Summary
		fmt.Printf("%-14s %6.0fs %5.0fs %6d %4d %4d %5d %5d %8.1f %8.1f %8.1f %6.0f %5.0f%%\n",
			p.Phase.Name, p.Summary.StartSeconds, p.Summary.DurationSeconds,
			p.Active, p.Arrived, p.Departed, s.Dropped, s.FailedOver,
			s.P50MTPMs, s.P95MTPMs, s.P99MTPMs, s.MeanFPS, s.TargetShare*100)
	}
	for _, p := range r.Phases {
		if lines := cliout.FidelityLines(p.Fleet.Fidelity); lines != nil {
			fmt.Printf("phase %s:\n", p.Phase.Name)
			for _, ln := range lines {
				fmt.Println("  " + ln)
			}
		}
	}
	fmt.Println()
	roll := r.Rollup
	fmt.Printf("baseline p99 %.1f ms (%s); worst p99 %.1f ms (%s), %.1fx baseline\n",
		roll.BaselineP99Ms, roll.BaselinePhase, roll.WorstP99Ms, roll.WorstPhase, roll.DegradationFactor)
	switch {
	case !roll.Disrupted:
		fmt.Println("no disruption: every phase stayed within 1.5x of baseline")
	case roll.Recovered:
		fmt.Printf("disruption in %q; recovered %.0f s after it ended\n", roll.WorstPhase, roll.RecoverySeconds)
	default:
		fmt.Printf("disruption in %q; NOT recovered by end of timeline\n", roll.WorstPhase)
	}
	fmt.Printf("worst 90-FPS share %.0f%%; worst phase dropped %d, failed over %d\n",
		roll.WorstTargetShare*100, roll.MaxDropped, roll.MaxFailedOver)
}

// jsonPhaseRow flattens one phase for the JSON report.
type jsonPhaseRow struct {
	Name     string                `json:"name"`
	StartS   float64               `json:"start_s"`
	DurS     float64               `json:"duration_s"`
	Active   int                   `json:"active"`
	Arrived  int                   `json:"arrived"`
	Departed int                   `json:"departed"`
	Summary  fleet.Summary         `json:"summary"`
	Fidelity *fleet.FidelityReport `json:"fidelity,omitempty"`
}

// printJSON emits the deterministic report: phase summaries carry no
// wall-clock or worker-pool fields, so identical scenarios produce
// identical bytes.
func printJSON(r scenario.Result) {
	report := struct {
		Scenario string         `json:"scenario"`
		Mix      string         `json:"mix"`
		Design   string         `json:"design"`
		Seed     int64          `json:"seed"`
		Phases   []jsonPhaseRow `json:"phases"`
		Rollup   fleet.Rollup   `json:"rollup"`
	}{
		Scenario: r.Scenario.Name,
		Mix:      r.Scenario.Mix,
		Design:   r.Scenario.Design.String(),
		Seed:     r.Scenario.Seed,
		Rollup:   r.Rollup,
	}
	for _, p := range r.Phases {
		report.Phases = append(report.Phases, jsonPhaseRow{
			Name:     p.Phase.Name,
			StartS:   p.Summary.StartSeconds,
			DurS:     p.Summary.DurationSeconds,
			Active:   p.Active,
			Arrived:  p.Arrived,
			Departed: p.Departed,
			Summary:  p.Summary.Summary,
			Fidelity: p.Fleet.Fidelity,
		})
	}
	if err := cliout.WriteJSON(os.Stdout, report); err != nil {
		fail("%v", err)
	}
}

func printCSV(r scenario.Result) {
	w := cliout.NewCSV(os.Stdout,
		"phase", "start_s", "duration_s", "active", "arrived", "departed", "dropped", "failed_over",
		"p50_mtp_ms", "p95_mtp_ms", "p99_mtp_ms", "mean_fps", "aggregate_fps",
		"aggregate_mbps", "target_share", "load", "queue_ms")
	for _, p := range r.Phases {
		s := p.Summary.Summary
		w.Row(p.Phase.Name,
			fmt.Sprintf("%.0f", p.Summary.StartSeconds),
			fmt.Sprintf("%.0f", p.Summary.DurationSeconds),
			fmt.Sprintf("%d", p.Active), fmt.Sprintf("%d", p.Arrived),
			fmt.Sprintf("%d", p.Departed), fmt.Sprintf("%d", s.Dropped),
			fmt.Sprintf("%d", s.FailedOver),
			fmt.Sprintf("%.3f", s.P50MTPMs), fmt.Sprintf("%.3f", s.P95MTPMs),
			fmt.Sprintf("%.3f", s.P99MTPMs), fmt.Sprintf("%.2f", s.MeanFPS),
			fmt.Sprintf("%.2f", s.AggregateFPS), fmt.Sprintf("%.3f", s.AggregateMBps),
			fmt.Sprintf("%.4f", s.TargetShare), fmt.Sprintf("%.3f", s.Load),
			fmt.Sprintf("%.3f", s.QueueMs))
	}
}
