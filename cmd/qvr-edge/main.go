// Command qvr-edge runs a geo-distributed edge render grid scenario:
// multiple named clusters with per-region WAN paths, a placement
// scheduler binding every session to a site, and session migration
// when sites saturate or go down mid-timeline.
//
// Usage:
//
//	qvr-edge -builtin edge-regional-outage
//	qvr-edge -builtin edge-autoscale-flashcrowd
//	qvr-edge -builtin edge-imbalance -policy score -format json
//	qvr-edge -file continental.scn -workers 8 -format csv > grid.csv
//	qvr-edge -list
//
// The report covers what the single-cluster commands cannot show:
// per-cluster utilization phase by phase, the placement decisions
// (who moved where, and why nobody was dropped), migration counts,
// and the fleet's MTP percentiles. Scenarios with an [slo] section
// additionally report per-phase SLO attainment, and autoscaled ones
// the controller's scale events plus GPU-seconds consumed against the
// provision-for-peak baseline. Reports are deterministic: the same
// scenario produces byte-identical JSON for any -workers value.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qvr/internal/cliout"
	"qvr/internal/edge"
	"qvr/internal/fleet"
	"qvr/internal/scenario"
)

func main() {
	file := flag.String("file", "", "grid scenario file to run (needs [cluster] sections)")
	builtin := flag.String("builtin", "", "built-in grid scenario: "+strings.Join(scenario.GridBuiltinNames(), " "))
	list := flag.Bool("list", false, "list built-in grid scenarios and exit")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = all cores; never affects results)")
	frames := flag.Int("frames", 0, "override measured frames per session per phase (0 = scenario setting)")
	warmup := flag.Int("warmup", -1, "override warmup frames per session per phase (-1 = scenario setting)")
	seed := flag.Int64("seed", -1, "override the scenario base seed (-1 = scenario setting)")
	policy := flag.String("policy", "", "override the placement policy: "+strings.Join(edge.PolicyNames(), " "))
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
		for _, name := range scenario.GridBuiltinNames() {
			sc, err := scenario.Builtin(name)
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("%-24s %d clusters, %d phases, policy %s, mix %s\n",
				name, len(sc.Topology.Clusters), len(sc.Phases), placementOf(sc), sc.Mix)
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
		fail("need -file, -builtin or -list (built-ins: %s)", strings.Join(scenario.GridBuiltinNames(), " "))
	}
	if err != nil {
		fail("%v", err)
	}
	if len(sc.Topology.Clusters) == 0 {
		fail("scenario %q has no [cluster] sections; use qvr-scenario for single-cluster timelines", sc.Name)
	}
	if *seed >= 0 {
		sc.Seed = *seed
	}
	if *policy != "" {
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
	opt.Series = obsFlags.Recorder(sc.SeriesMeta("qvr-edge"))
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
	obsFlags.Finish("qvr-edge", scenario.Expectations(r))
}

func fail(format string, args ...interface{}) {
	cliout.Fail("qvr-edge", format, args...)
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

func printTable(r scenario.Result) {
	sc := r.Scenario
	fmt.Printf("edge grid %s: policy %s, mix %s, design %s, seed %d\n",
		sc.Name, placementOf(sc), sc.Mix, sc.Design, sc.Seed)
	for _, c := range sc.Topology.Clusters {
		fmt.Printf("  cluster %-12s %d GPUs, base rtt %.0f ms", c.Name, c.GPUs, c.RTTSeconds*1000)
		if c.BandwidthBps > 0 {
			fmt.Printf(", %.0f Mbit/s per session", c.BandwidthBps/1e6)
		}
		fmt.Println()
	}
	if slo := sc.SLO; slo != nil {
		fmt.Printf("  slo:")
		if slo.P99MTPMs > 0 {
			fmt.Printf(" p99 mtp <= %.0f ms", slo.P99MTPMs)
		}
		if slo.Min90FPSShare > 0 {
			fmt.Printf(" 90fps share >= %.0f%%", slo.Min90FPSShare*100)
		}
		fmt.Println()
	}
	fmt.Println()

	fmt.Printf("%-14s %7s %6s %6s %5s %5s %5s %8s %8s %8s %6s %6s %5s\n",
		"phase", "start", "dur", "active", "migr", "fail", "drop",
		"p50(ms)", "p95(ms)", "p99(ms)", "mFPS", "share", "slo")
	for _, p := range r.Phases {
		s := p.Summary.Summary
		fmt.Printf("%-14s %6.0fs %5.0fs %6d %5d %5d %5d %8.1f %8.1f %8.1f %6.0f %5.0f%% %5s\n",
			p.Phase.Name, p.Summary.StartSeconds, p.Summary.DurationSeconds,
			p.Active, s.Migrated, s.FailedOver, s.Dropped,
			s.P50MTPMs, s.P95MTPMs, s.P99MTPMs, s.MeanFPS, s.TargetShare*100, sloCell(p))
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
	fmt.Println("per-cluster utilization (assigned/capacity):")
	for _, p := range r.Phases {
		fmt.Printf("  %-14s", p.Phase.Name)
		for _, c := range gridOf(p).Clusters {
			state := fmt.Sprintf("%d/%d", c.Assigned, c.Capacity)
			if c.Capacity == 0 {
				state = "DOWN"
			} else if c.QueueMs > 0 {
				state += fmt.Sprintf(" +%.1fms q", c.QueueMs)
			}
			fmt.Printf("  %s %-14s", c.Name, state)
		}
		fmt.Println()
	}

	moved := false
	for _, p := range r.Phases {
		for _, mv := range gridOf(p).Moves {
			if !moved {
				fmt.Println()
				fmt.Println("placement moves:")
				moved = true
			}
			fmt.Printf("  %-14s %-20s %s -> %s\n", p.Phase.Name, mv.Session, mv.From, mv.To)
		}
	}

	if rep := r.Autoscale; rep != nil {
		fmt.Println()
		fmt.Printf("autoscale: %d scale events; %.0f GPU-s consumed vs %.0f static-peak (%.1f%% saved); SLO met %d/%d phases\n",
			len(rep.Events), rep.GPUSeconds, rep.StaticPeakGPUSeconds,
			rep.SavedFraction*100, rep.SLOMetPhases, rep.SLOEvalPhases)
		for _, e := range rep.Events {
			verb := "provision"
			if e.ToGPUs < e.FromGPUs {
				verb = "decommission"
			}
			fmt.Printf("  t=%5.0fs %-12s %d -> %d GPUs (%s, %s), ready t=%.0fs\n",
				e.TimeSeconds, e.Cluster, e.FromGPUs, e.ToGPUs, verb, e.Reason, e.ReadySeconds)
		}
	}

	fmt.Println()
	roll := r.Rollup
	fmt.Printf("roll-up: %d migrations, max failed-over %d, max dropped %d\n",
		roll.TotalMigrated, roll.MaxFailedOver, roll.MaxDropped)
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
}

// jsonPhaseRow flattens one phase for the JSON report.
type jsonPhaseRow struct {
	Name     string            `json:"name"`
	StartS   float64           `json:"start_s"`
	DurS     float64           `json:"duration_s"`
	Active   int               `json:"active"`
	Arrived  int               `json:"arrived"`
	Departed int               `json:"departed"`
	Summary  fleet.Summary     `json:"summary"`
	Grid     *fleet.GridReport `json:"grid"`
	// GPUSeconds is the phase's capacity consumption (every grid
	// scenario reports it, 0 when all sites are down); SLOMet is the
	// verdict against the [slo] targets and ScaleEvents the autoscaler
	// decisions taken on this window — both omitted when their mode is
	// off.
	GPUSeconds  float64               `json:"gpu_seconds"`
	SLOMet      *bool                 `json:"slo_met,omitempty"`
	ScaleEvents []fleet.ScaleEvent    `json:"scale_events,omitempty"`
	Fidelity    *fleet.FidelityReport `json:"fidelity,omitempty"`
}

// printJSON emits the deterministic report: phase summaries carry no
// wall-clock or worker-pool fields, and placement is a pure function
// of the scenario, so identical scenarios produce identical bytes.
func printJSON(r scenario.Result) {
	type jsonCluster struct {
		Name      string             `json:"name"`
		GPUs      int                `json:"gpus"`
		RTTMs     float64            `json:"rtt_ms"`
		BWMbitps  float64            `json:"bandwidth_mbitps,omitempty"`
		PerGPU    int                `json:"sessions_per_gpu,omitempty"`
		RegionRTT map[string]float64 `json:"region_rtt_ms,omitempty"`
	}
	report := struct {
		Scenario string         `json:"scenario"`
		Policy   string         `json:"policy"`
		Mix      string         `json:"mix"`
		Design   string         `json:"design"`
		Seed     int64          `json:"seed"`
		SLO      *fleet.SLO     `json:"slo,omitempty"`
		Clusters []jsonCluster  `json:"clusters"`
		Phases   []jsonPhaseRow `json:"phases"`
		// Autoscale follows the phases so its gpu_seconds totals read
		// after the per-phase ones (the smoke gate scrapes the last).
		Autoscale *fleet.AutoscaleReport `json:"autoscale,omitempty"`
		Rollup    fleet.Rollup           `json:"rollup"`
	}{
		Scenario:  r.Scenario.Name,
		Policy:    placementOf(r.Scenario),
		Mix:       r.Scenario.Mix,
		Design:    r.Scenario.Design.String(),
		Seed:      r.Scenario.Seed,
		SLO:       r.Scenario.SLO,
		Autoscale: r.Autoscale,
		Rollup:    r.Rollup,
	}
	for _, c := range r.Scenario.Topology.Clusters {
		rtts := map[string]float64{}
		for region, rtt := range c.RegionRTT {
			rtts[region] = rtt * 1000
		}
		report.Clusters = append(report.Clusters, jsonCluster{
			Name: c.Name, GPUs: c.GPUs, RTTMs: c.RTTSeconds * 1000,
			BWMbitps: c.BandwidthBps / 1e6, PerGPU: c.SessionsPerGPU, RegionRTT: rtts,
		})
	}
	for _, p := range r.Phases {
		report.Phases = append(report.Phases, jsonPhaseRow{
			Name:        p.Phase.Name,
			StartS:      p.Summary.StartSeconds,
			DurS:        p.Summary.DurationSeconds,
			Active:      p.Active,
			Arrived:     p.Arrived,
			Departed:    p.Departed,
			Summary:     p.Summary.Summary,
			Grid:        gridOf(p),
			GPUSeconds:  p.GPUSeconds,
			SLOMet:      p.SLOMet,
			ScaleEvents: p.ScaleEvents,
			Fidelity:    p.Fleet.Fidelity,
		})
	}
	if err := cliout.WriteJSON(os.Stdout, report); err != nil {
		fail("%v", err)
	}
}

// printCSV emits one row per (phase, cluster): the utilization
// time-series a spreadsheet plots directly, with the phase-level
// fleet metrics repeated on each row.
func printCSV(r scenario.Result) {
	w := cliout.NewCSV(os.Stdout,
		"phase", "start_s", "cluster", "gpus", "capacity", "assigned", "load", "queue_ms",
		"migrated", "failed_over", "p50_mtp_ms", "p95_mtp_ms", "p99_mtp_ms",
		"mean_fps", "target_share", "slo_met")
	for _, p := range r.Phases {
		s := p.Summary.Summary
		slo := ""
		if p.SLOMet != nil {
			slo = fmt.Sprintf("%v", *p.SLOMet)
		}
		for _, c := range gridOf(p).Clusters {
			w.Row(p.Phase.Name,
				fmt.Sprintf("%.0f", p.Summary.StartSeconds),
				c.Name,
				fmt.Sprintf("%d", c.GPUs), fmt.Sprintf("%d", c.Capacity),
				fmt.Sprintf("%d", c.Assigned), fmt.Sprintf("%.3f", c.Load),
				fmt.Sprintf("%.3f", c.QueueMs),
				fmt.Sprintf("%d", s.Migrated), fmt.Sprintf("%d", s.FailedOver),
				fmt.Sprintf("%.3f", s.P50MTPMs), fmt.Sprintf("%.3f", s.P95MTPMs),
				fmt.Sprintf("%.3f", s.P99MTPMs), fmt.Sprintf("%.2f", s.MeanFPS),
				fmt.Sprintf("%.4f", s.TargetShare), slo)
		}
	}
}
