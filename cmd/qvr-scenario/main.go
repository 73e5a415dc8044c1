// Command qvr-scenario executes a declarative time-phased workload
// scenario on the fleet engine: diurnal load curves, flash crowds,
// network brownouts, remote-cluster outages with failover, user
// churn, and geo-distributed edge grids with placement, migration and
// autoscaling.
//
// Usage:
//
//	qvr-scenario -builtin flash-crowd
//	qvr-scenario -builtin cluster-outage-failover -format json
//	qvr-scenario -builtin edge-imbalance -policy score -format json
//	qvr-scenario -file myday.scn -workers 8 -format csv > phases.csv
//	qvr-scenario -list
//
// Scenario files are sectioned key=value text; see the README or
// internal/scenario for the format. A scenario with [cluster] sections
// runs on an edge grid, and its report adds what a single cluster
// cannot show: per-cluster utilization phase by phase, the placement
// moves, migration counts, per-phase SLO attainment, and the
// autoscaler's scale events with GPU-seconds against provision-for-
// peak. Reports are deterministic: the same scenario produces
// byte-identical output for any -workers value, run after run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qvr/internal/cliout"
	"qvr/internal/edge"
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
	policy := flag.String("policy", "", "override a grid scenario's placement policy: "+strings.Join(edge.PolicyNames(), " "))
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
		if err := printList(os.Stdout); err != nil {
			fail("%v", err)
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
	if *policy != "" {
		if !isGrid(sc) {
			fail("-policy needs a grid scenario; %q has no [cluster] sections", sc.Name)
		}
		if _, ok := edge.PolicyByName(*policy); !ok {
			fail("unknown policy %q (have: %s)", *policy, strings.Join(edge.PolicyNames(), " "))
		}
		sc.Placement = *policy
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
	if err := report(os.Stdout, r, form); err != nil {
		fail("%v", err)
	}
	obsFlags.Finish("qvr-scenario", scenario.Expectations(r))
}

func fail(format string, args ...interface{}) {
	cliout.Fail("qvr-scenario", format, args...)
}

// isGrid reports whether a scenario runs on an edge grid.
func isGrid(sc scenario.Scenario) bool { return len(sc.Topology.Clusters) > 0 }

// printList writes one line per built-in scenario.
func printList(w io.Writer) error {
	for _, name := range scenario.BuiltinNames() {
		sc, err := scenario.Builtin(name)
		if err != nil {
			return err
		}
		grid := ""
		if isGrid(sc) {
			grid = fmt.Sprintf(", %d-cluster grid, policy %s", len(sc.Topology.Clusters), placementOf(sc))
		}
		fidelity := ""
		if f := sc.Fidelity; f != nil {
			fidelity = fmt.Sprintf(", [fidelity] fast path (%.2f%% exact)", f.ExactFraction*100)
		}
		fmt.Fprintf(w, "%-24s %d phases, mix %s%s%s\n", name, len(sc.Phases), sc.Mix, grid, fidelity)
	}
	return nil
}

// report writes a run's report in one format.
func report(w io.Writer, r scenario.Result, form cliout.Format) error {
	switch form {
	case cliout.JSON:
		return printJSON(w, r)
	case cliout.CSV:
		if isGrid(r.Scenario) {
			printGridCSV(w, r)
		} else {
			printCSV(w, r)
		}
	default:
		printTable(w, r)
	}
	return nil
}

// placementOf spells the effective policy (the default when unset).
func placementOf(sc scenario.Scenario) string {
	if sc.Placement != "" {
		return sc.Placement
	}
	return edge.Score.String()
}

// gridOf returns a phase's placement report (never nil in grid mode).
func gridOf(p scenario.PhaseResult) *fleet.GridReport {
	if g := p.Fleet.Contention.Grid; g != nil {
		return g
	}
	return &fleet.GridReport{}
}

// sloCell spells a phase's SLO verdict for the table ("-" = no SLO).
func sloCell(p scenario.PhaseResult) string {
	switch {
	case p.SLOMet == nil:
		return "-"
	case *p.SLOMet:
		return "ok"
	default:
		return "MISS"
	}
}

func printTable(w io.Writer, r scenario.Result) {
	sc := r.Scenario
	grid := isGrid(sc)
	if grid {
		printGridHeader(w, sc)
		fmt.Fprintf(w, "%-14s %7s %6s %6s %5s %5s %5s %8s %8s %8s %6s %6s %5s\n",
			"phase", "start", "dur", "active", "migr", "fail", "drop",
			"p50(ms)", "p95(ms)", "p99(ms)", "mFPS", "share", "slo")
		for _, p := range r.Phases {
			s := p.Summary.Summary
			fmt.Fprintf(w, "%-14s %6.0fs %5.0fs %6d %5d %5d %5d %8.1f %8.1f %8.1f %6.0f %5.0f%% %5s\n",
				p.Phase.Name, p.Summary.StartSeconds, p.Summary.DurationSeconds,
				p.Active, s.Migrated, s.FailedOver, s.Dropped,
				s.P50MTPMs, s.P95MTPMs, s.P99MTPMs, s.MeanFPS, s.TargetShare*100, sloCell(p))
		}
	} else {
		fmt.Fprintf(w, "scenario %s: mix %s, design %s, seed %d", sc.Name, sc.Mix, sc.Design, sc.Seed)
		if sc.GPUs >= 0 {
			fmt.Fprintf(w, ", shared cluster %d GPUs", sc.GPUs)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-14s %7s %6s %6s %4s %4s %5s %5s %8s %8s %8s %6s %6s\n",
			"phase", "start", "dur", "active", "arr", "dep", "drop", "fail",
			"p50(ms)", "p95(ms)", "p99(ms)", "mFPS", "share")
		for _, p := range r.Phases {
			s := p.Summary.Summary
			fmt.Fprintf(w, "%-14s %6.0fs %5.0fs %6d %4d %4d %5d %5d %8.1f %8.1f %8.1f %6.0f %5.0f%%\n",
				p.Phase.Name, p.Summary.StartSeconds, p.Summary.DurationSeconds,
				p.Active, p.Arrived, p.Departed, s.Dropped, s.FailedOver,
				s.P50MTPMs, s.P95MTPMs, s.P99MTPMs, s.MeanFPS, s.TargetShare*100)
		}
	}
	for _, p := range r.Phases {
		if lines := cliout.FidelityLines(p.Fleet.Fidelity); lines != nil {
			fmt.Fprintf(w, "phase %s:\n", p.Phase.Name)
			for _, ln := range lines {
				fmt.Fprintln(w, "  "+ln)
			}
		}
	}
	if grid {
		printGridSections(w, r)
	}

	fmt.Fprintln(w)
	roll := r.Rollup
	if grid {
		fmt.Fprintf(w, "roll-up: %d migrations, max failed-over %d, max dropped %d\n",
			roll.TotalMigrated, roll.MaxFailedOver, roll.MaxDropped)
	}
	fmt.Fprintf(w, "baseline p99 %.1f ms (%s); worst p99 %.1f ms (%s), %.1fx baseline\n",
		roll.BaselineP99Ms, roll.BaselinePhase, roll.WorstP99Ms, roll.WorstPhase, roll.DegradationFactor)
	switch {
	case !roll.Disrupted:
		fmt.Fprintln(w, "no disruption: every phase stayed within 1.5x of baseline")
	case roll.Recovered:
		fmt.Fprintf(w, "disruption in %q; recovered %.0f s after it ended\n", roll.WorstPhase, roll.RecoverySeconds)
	default:
		fmt.Fprintf(w, "disruption in %q; NOT recovered by end of timeline\n", roll.WorstPhase)
	}
	if !grid {
		fmt.Fprintf(w, "worst 90-FPS share %.0f%%; worst phase dropped %d, failed over %d\n",
			roll.WorstTargetShare*100, roll.MaxDropped, roll.MaxFailedOver)
	}
}

// printGridHeader writes a grid report's title, sites and SLO targets.
func printGridHeader(w io.Writer, sc scenario.Scenario) {
	fmt.Fprintf(w, "edge grid %s: policy %s, mix %s, design %s, seed %d\n",
		sc.Name, placementOf(sc), sc.Mix, sc.Design, sc.Seed)
	for _, c := range sc.Topology.Clusters {
		fmt.Fprintf(w, "  cluster %-12s %d GPUs, base rtt %.0f ms", c.Name, c.GPUs, c.RTTSeconds*1000)
		if c.BandwidthBps > 0 {
			fmt.Fprintf(w, ", %.0f Mbit/s per session", c.BandwidthBps/1e6)
		}
		fmt.Fprintln(w)
	}
	if slo := sc.SLO; slo != nil {
		fmt.Fprintf(w, "  slo:")
		if slo.P99MTPMs > 0 {
			fmt.Fprintf(w, " p99 mtp <= %.0f ms", slo.P99MTPMs)
		}
		if slo.Min90FPSShare > 0 {
			fmt.Fprintf(w, " 90fps share >= %.0f%%", slo.Min90FPSShare*100)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// printGridSections writes what only a grid run has: per-cluster
// utilization phase by phase, the placement moves and the autoscaler's
// scale events.
func printGridSections(w io.Writer, r scenario.Result) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-cluster utilization (assigned/capacity):")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  %-14s", p.Phase.Name)
		for _, c := range gridOf(p).Clusters {
			state := fmt.Sprintf("%d/%d", c.Assigned, c.Capacity)
			if c.Capacity == 0 {
				state = "DOWN"
			} else if c.QueueMs > 0 {
				state += fmt.Sprintf(" +%.1fms q", c.QueueMs)
			}
			fmt.Fprintf(w, "  %s %-14s", c.Name, state)
		}
		fmt.Fprintln(w)
	}

	moved := false
	for _, p := range r.Phases {
		for _, mv := range gridOf(p).Moves {
			if !moved {
				fmt.Fprintln(w)
				fmt.Fprintln(w, "placement moves:")
				moved = true
			}
			fmt.Fprintf(w, "  %-14s %-20s %s -> %s\n", p.Phase.Name, mv.Session, mv.From, mv.To)
		}
	}

	if rep := r.Autoscale; rep != nil {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "autoscale: %d scale events; %.0f GPU-s consumed vs %.0f static-peak (%.1f%% saved); SLO met %d/%d phases\n",
			len(rep.Events), rep.GPUSeconds, rep.StaticPeakGPUSeconds,
			rep.SavedFraction*100, rep.SLOMetPhases, rep.SLOEvalPhases)
		for _, e := range rep.Events {
			verb := "provision"
			if e.ToGPUs < e.FromGPUs {
				verb = "decommission"
			}
			fmt.Fprintf(w, "  t=%5.0fs %-12s %d -> %d GPUs (%s, %s), ready t=%.0fs\n",
				e.TimeSeconds, e.Cluster, e.FromGPUs, e.ToGPUs, verb, e.Reason, e.ReadySeconds)
		}
	}
}

// jsonPhaseRow flattens one phase for the JSON report. Grid and
// GPUSeconds are set on grid runs only, as are SLOMet and ScaleEvents,
// which are omitted when their mode is off; GPUSeconds is the phase's
// capacity consumption (0 when all sites are down).
type jsonPhaseRow struct {
	Name        string                `json:"name"`
	StartS      float64               `json:"start_s"`
	DurS        float64               `json:"duration_s"`
	Active      int                   `json:"active"`
	Arrived     int                   `json:"arrived"`
	Departed    int                   `json:"departed"`
	Summary     fleet.Summary         `json:"summary"`
	Grid        *fleet.GridReport     `json:"grid,omitempty"`
	GPUSeconds  *float64              `json:"gpu_seconds,omitempty"`
	SLOMet      *bool                 `json:"slo_met,omitempty"`
	ScaleEvents []fleet.ScaleEvent    `json:"scale_events,omitempty"`
	Fidelity    *fleet.FidelityReport `json:"fidelity,omitempty"`
}

type jsonCluster struct {
	Name      string             `json:"name"`
	GPUs      int                `json:"gpus"`
	RTTMs     float64            `json:"rtt_ms"`
	BWMbitps  float64            `json:"bandwidth_mbitps,omitempty"`
	PerGPU    int                `json:"sessions_per_gpu,omitempty"`
	RegionRTT map[string]float64 `json:"region_rtt_ms,omitempty"`
}

// printJSON emits the deterministic report: phase summaries carry no
// wall-clock or worker-pool fields, and placement is a pure function
// of the scenario, so identical scenarios produce identical bytes.
// Policy, SLO and Clusters are set on grid runs only.
func printJSON(w io.Writer, r scenario.Result) error {
	sc := r.Scenario
	report := struct {
		Scenario string         `json:"scenario"`
		Policy   string         `json:"policy,omitempty"`
		Mix      string         `json:"mix"`
		Design   string         `json:"design"`
		Seed     int64          `json:"seed"`
		SLO      *fleet.SLO     `json:"slo,omitempty"`
		Clusters []jsonCluster  `json:"clusters,omitempty"`
		Phases   []jsonPhaseRow `json:"phases"`
		// Autoscale follows the phases so its gpu_seconds totals read
		// after the per-phase ones (the smoke gate scrapes the last).
		Autoscale *fleet.AutoscaleReport `json:"autoscale,omitempty"`
		Rollup    fleet.Rollup           `json:"rollup"`
	}{
		Scenario:  sc.Name,
		Mix:       sc.Mix,
		Design:    sc.Design.String(),
		Seed:      sc.Seed,
		Autoscale: r.Autoscale,
		Rollup:    r.Rollup,
	}
	grid := isGrid(sc)
	if grid {
		report.Policy, report.SLO = placementOf(sc), sc.SLO
		for _, c := range sc.Topology.Clusters {
			rtts := map[string]float64{}
			for region, rtt := range c.RegionRTT {
				rtts[region] = rtt * 1000
			}
			report.Clusters = append(report.Clusters, jsonCluster{
				Name: c.Name, GPUs: c.GPUs, RTTMs: c.RTTSeconds * 1000,
				BWMbitps: c.BandwidthBps / 1e6, PerGPU: c.SessionsPerGPU, RegionRTT: rtts,
			})
		}
	}
	for _, p := range r.Phases {
		row := jsonPhaseRow{
			Name:     p.Phase.Name,
			StartS:   p.Summary.StartSeconds,
			DurS:     p.Summary.DurationSeconds,
			Active:   p.Active,
			Arrived:  p.Arrived,
			Departed: p.Departed,
			Summary:  p.Summary.Summary,
			Fidelity: p.Fleet.Fidelity,
		}
		if grid {
			row.Grid, row.GPUSeconds = gridOf(p), &p.GPUSeconds
			row.SLOMet, row.ScaleEvents = p.SLOMet, p.ScaleEvents
		}
		report.Phases = append(report.Phases, row)
	}
	return cliout.WriteJSON(w, report)
}

func printCSV(w io.Writer, r scenario.Result) {
	c := cliout.NewCSV(w,
		"phase", "start_s", "duration_s", "active", "arrived", "departed", "dropped", "failed_over",
		"p50_mtp_ms", "p95_mtp_ms", "p99_mtp_ms", "mean_fps", "aggregate_fps",
		"aggregate_mbps", "target_share", "load", "queue_ms")
	for _, p := range r.Phases {
		s := p.Summary.Summary
		c.Row(p.Phase.Name,
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

// printGridCSV emits one row per (phase, cluster): the utilization
// time-series a spreadsheet plots directly, with the phase-level
// fleet metrics repeated on each row.
func printGridCSV(w io.Writer, r scenario.Result) {
	c := cliout.NewCSV(w,
		"phase", "start_s", "cluster", "gpus", "capacity", "assigned", "load", "queue_ms",
		"migrated", "failed_over", "p50_mtp_ms", "p95_mtp_ms", "p99_mtp_ms",
		"mean_fps", "target_share", "slo_met")
	for _, p := range r.Phases {
		s := p.Summary.Summary
		slo := ""
		if p.SLOMet != nil {
			slo = fmt.Sprintf("%v", *p.SLOMet)
		}
		for _, cl := range gridOf(p).Clusters {
			c.Row(p.Phase.Name,
				fmt.Sprintf("%.0f", p.Summary.StartSeconds),
				cl.Name,
				fmt.Sprintf("%d", cl.GPUs), fmt.Sprintf("%d", cl.Capacity),
				fmt.Sprintf("%d", cl.Assigned), fmt.Sprintf("%.3f", cl.Load),
				fmt.Sprintf("%.3f", cl.QueueMs),
				fmt.Sprintf("%d", s.Migrated), fmt.Sprintf("%d", s.FailedOver),
				fmt.Sprintf("%.3f", s.P50MTPMs), fmt.Sprintf("%.3f", s.P95MTPMs),
				fmt.Sprintf("%.3f", s.P99MTPMs), fmt.Sprintf("%.2f", s.MeanFPS),
				fmt.Sprintf("%.4f", s.TargetShare), slo)
		}
	}
}
