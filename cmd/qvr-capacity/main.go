// Command qvr-capacity answers the HPL question for this system: how
// many Q-VR sessions does a grid (or shared cluster) sustain while
// meeting its SLO? It binary-searches the admissible session count
// against the scenario's [slo] section, sweeps the knee curve around
// the found capacity, and runs a weak/strong scaling study over the
// fleet worker pool.
//
// Usage:
//
//	qvr-capacity -builtin capacity-probe
//	qvr-capacity -builtin edge-autoscale-flashcrowd -max 96 -format json
//	qvr-capacity -file mygrid.scn -slo-p99 120 -scale-workers 1,2,4,8
//	qvr-capacity -builtin capacity-probe -events bin/BENCH_capacity.json
//	qvr-capacity -list
//
// Every run writes an HPL.dat-style parameter file (-params, default
// capacity.params) recording topology, SLO, bounds, seed and grids, so
// results are reproducible byte-for-byte. -events streams one NDJSON
// record per probe step (the BENCH_capacity.json archive CI tracks
// across PRs). Reports are deterministic: the same probe produces
// byte-identical knee-curve JSON for any -workers value; only the
// scaling study's wall-clock-derived fields vary between hosts.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qvr/internal/capacity"
	"qvr/internal/cliout"
	"qvr/internal/fleet"
	"qvr/internal/scenario"
)

func main() {
	file := flag.String("file", "", "scenario file to probe (needs an [slo] section or -slo-* flags)")
	builtin := flag.String("builtin", "", "built-in scenario: "+strings.Join(scenario.BuiltinNames(), " "))
	list := flag.Bool("list", false, "list built-in scenarios (marking probe-ready ones) and exit")
	minS := flag.Int("min", 1, "search floor: smallest session count probed")
	maxS := flag.Int("max", 0, "search ceiling (0 = 4x the scenario's full-speed session capacity)")
	gridPoints := flag.Int("grid-points", capacity.DefaultGridPoints, "knee-curve sweep points")
	gridSpan := flag.Float64("grid-span", capacity.DefaultGridSpan, "knee-curve sweep span around the knee (0.5 = 50%..150%)")
	window := flag.Float64("window", capacity.DefaultWindowSeconds, "steady-state window per point, seconds (prices GPU-seconds)")
	workers := flag.Int("workers", 0, "worker pool for search/knee points (0 = all cores; never affects their metrics)")
	frames := flag.Int("frames", 0, "override measured frames per session (0 = scenario setting)")
	warmup := flag.Int("warmup", -1, "override warmup frames per session (-1 = scenario setting)")
	seed := flag.Int64("seed", -1, "override the scenario base seed (-1 = scenario setting)")
	sloP99 := flag.Float64("slo-p99", 0, "override/declare the SLO P99 MTP ceiling, ms (0 = scenario [slo])")
	sloShare := flag.Float64("slo-share", 0, "override/declare the SLO 90-FPS share floor, 0..1 (0 = scenario [slo])")
	scaleWorkers := flag.String("scale-workers", "1,2,4", "scaling-study worker counts, comma-separated (empty = skip the study)")
	spw := flag.Int("spw", capacity.DefaultSessionsPerWorker, "weak-scaling sessions per worker")
	strong := flag.Int("strong", 0, "strong-scaling total sessions (0 = the knee)")
	params := flag.String("params", "capacity.params", "write the HPL.dat-style parameter file here (empty = skip)")
	events := flag.String("events", "", "stream NDJSON probe events to this file (the BENCH_capacity.json archive)")
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
			ready := "needs -slo-* flags"
			if sc.SLO != nil && sc.SLO.Enabled() {
				ready = "probe-ready ([slo] declared)"
			}
			fmt.Printf("%-24s %s\n", name, ready)
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
	if *sloP99 > 0 || *sloShare > 0 {
		slo := sc.SLO
		if slo == nil {
			slo = &fleet.SLO{}
		}
		if *sloP99 > 0 {
			slo.P99MTPMs = *sloP99
		}
		if *sloShare > 0 {
			slo.Min90FPSShare = *sloShare
		}
		sc.SLO = slo
	}

	cfg := capacity.Config{
		Scenario:          sc,
		MinSessions:       *minS,
		MaxSessions:       *maxS,
		GridPoints:        *gridPoints,
		GridSpan:          *gridSpan,
		WindowSeconds:     *window,
		Workers:           *workers,
		FramesOverride:    *frames,
		SessionsPerWorker: *spw,
		StrongSessions:    *strong,
	}
	if *warmup >= 0 {
		cfg.WarmupOverride = scenario.Warmup(*warmup)
	}
	if ws := strings.TrimSpace(*scaleWorkers); ws != "" {
		for _, part := range strings.Split(ws, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fail("bad -scale-workers entry %q: %v", part, err)
			}
			cfg.ScaleWorkers = append(cfg.ScaleWorkers, n)
		}
	}

	if *events != "" {
		w, err := cliout.NewEventWriter(*events)
		if err != nil {
			fail("%v", err)
		}
		defer w.Close()
		cfg.Observer = func(e capacity.Event) {
			if err := w.Emit(e); err != nil {
				fail("%v", err)
			}
		}
	}
	cfg.Obs = obsFlags.Registry()
	cfg.Tracer = obsFlags.Tracer()
	cfg.Series = obsFlags.Recorder(sc.SeriesMeta("qvr-capacity"))

	rep, err := capacity.Probe(cfg)
	if err != nil {
		fail("%v", err)
	}

	if *params != "" {
		pf, err := os.Create(*params)
		if err != nil {
			fail("%v", err)
		}
		if err := capacity.WriteParams(pf, rep, sc.Topology, sc.Placement); err != nil {
			fail("%v", err)
		}
		if err := pf.Close(); err != nil {
			fail("%v", err)
		}
	}

	switch form {
	case cliout.Table:
		printTable(rep)
	case cliout.JSON:
		if err := cliout.WriteJSON(os.Stdout, rep); err != nil {
			fail("%v", err)
		}
	case cliout.CSV:
		printCSV(rep)
	}
	obsFlags.Finish("qvr-capacity", capacity.Expectations(rep))
}

func fail(format string, args ...interface{}) {
	cliout.Fail("qvr-capacity", format, args...)
}

func printTable(rep capacity.Report) {
	fmt.Printf("capacity probe %s: mix %s, design %s, seed %d\n", rep.Scenario, rep.Mix, rep.Design, rep.Seed)
	var targets []string
	if rep.SLO.P99MTPMs > 0 {
		targets = append(targets, fmt.Sprintf("p99 mtp <= %.0f ms", rep.SLO.P99MTPMs))
	}
	if rep.SLO.Min90FPSShare > 0 {
		targets = append(targets, fmt.Sprintf("90fps share >= %.0f%%", rep.SLO.Min90FPSShare*100))
	}
	fmt.Printf("  slo: %s\n", strings.Join(targets, ", "))
	p := rep.Params
	fmt.Printf("  search [%d, %d]; knee grid %d points +-%.0f%%; window %.0f s; frames %d, warmup %d\n",
		p.MinSessions, p.MaxSessions, p.GridPoints, p.GridSpan*100, p.WindowSeconds, p.Frames, p.Warmup)
	if p.ExactFraction > 0 {
		fmt.Printf("  fidelity: surrogate fast path, %.2f%% exact sample; knee confirmed by exact DES\n",
			p.ExactFraction*100)
	}
	fmt.Println()

	fmt.Println("search trace:")
	fmt.Printf("  %8s %5s %8s %6s %5s %5s\n", "sessions", "met", "p99(ms)", "share", "drop", "fail")
	for _, pt := range rep.Search {
		fmt.Printf("  %8d %5s %8.1f %5.0f%% %5d %5d\n",
			pt.Sessions, metCell(pt.Met), pt.P99MTPMs, pt.TargetShare*100, pt.Dropped, pt.FailedOver)
	}
	fmt.Println()
	switch rep.Outcome {
	case capacity.OutcomeKnee:
		fmt.Printf("capacity: %d sessions (knee inside [%d, %d])\n", rep.KneeSessions, p.MinSessions, p.MaxSessions)
	case capacity.OutcomeBelowMin:
		fmt.Printf("capacity: 0 sessions — SLO unmeetable at the search floor (%d)\n", p.MinSessions)
	case capacity.OutcomeAtMax:
		fmt.Printf("capacity: >= %d sessions — SLO still met at the search ceiling (bound, not knee; raise -max)\n", rep.KneeSessions)
	}

	fmt.Println()
	fmt.Println("knee curve:")
	fmt.Printf("  %8s %5s %8s %6s %5s %5s %8s %8s\n", "sessions", "met", "p99(ms)", "share", "drop", "fail", "aggFPS", "gpu-s")
	for _, pt := range rep.Knee {
		fmt.Printf("  %8d %5s %8.1f %5.0f%% %5d %5d %8.0f %8.0f\n",
			pt.Sessions, metCell(pt.Met), pt.P99MTPMs, pt.TargetShare*100,
			pt.Dropped, pt.FailedOver, pt.AggregateFPS, pt.GPUSeconds)
	}

	if ke := rep.KneeExact; ke != nil {
		fmt.Println()
		fmt.Printf("knee confirmation (exact DES at %d sessions): p99 %.1f ms, share %.0f%%, slo %s\n",
			ke.Sessions, ke.P99MTPMs, ke.TargetShare*100, metCell(ke.Met))
		if fast, ok := fastKneePoint(rep); ok {
			fmt.Printf("  fast path read p99 %.1f ms at the knee — delta %+.1f ms\n",
				fast.P99MTPMs, fast.P99MTPMs-ke.P99MTPMs)
		}
	}

	if len(rep.Scaling) > 0 {
		fmt.Println()
		fmt.Printf("scaling study (weak: %d sessions/worker; strong: %d sessions):\n",
			p.SessionsPerWorker, strongSessions(rep))
		fmt.Printf("  %-6s %7s %8s %5s %8s %9s %8s %7s\n",
			"mode", "workers", "sessions", "met", "wall(s)", "sess/s", "speedup", "eff")
		for _, sp := range rep.Scaling {
			fmt.Printf("  %-6s %7d %8d %5s %8.3f %9.1f %8.2f %7.2f\n",
				sp.Mode, sp.Workers, sp.Sessions, metCell(sp.Met),
				sp.WallSeconds, sp.SessionsPerSec, sp.Speedup, sp.Efficiency)
		}
	}
}

func metCell(met bool) string {
	if met {
		return "ok"
	}
	return "MISS"
}

// fastKneePoint finds the fast-path reading at the knee session count,
// for the side-by-side with the exact-DES confirmation.
func fastKneePoint(rep capacity.Report) (capacity.Point, bool) {
	for _, pt := range rep.Knee {
		if pt.Sessions == rep.KneeSessions {
			return pt, true
		}
	}
	for _, pt := range rep.Search {
		if pt.Sessions == rep.KneeSessions {
			return pt, true
		}
	}
	return capacity.Point{}, false
}

func strongSessions(rep capacity.Report) int {
	for _, sp := range rep.Scaling {
		if sp.Mode == "strong" {
			return sp.Sessions
		}
	}
	return rep.KneeSessions
}

// printCSV emits one row per probed point, tagged by kind (search,
// knee, scaling-weak, scaling-strong), so one file plots both the knee
// curve and the scaling study.
func printCSV(rep capacity.Report) {
	w := cliout.NewCSV(os.Stdout,
		"kind", "sessions", "workers", "met", "p99_mtp_ms", "target_share",
		"dropped", "failed_over", "aggregate_fps", "gpu_seconds",
		"wall_seconds", "sessions_per_sec", "speedup", "efficiency")
	point := func(kind string, pt capacity.Point) {
		w.Row(kind, fmt.Sprintf("%d", pt.Sessions), "",
			fmt.Sprintf("%v", pt.Met), fmt.Sprintf("%.3f", pt.P99MTPMs),
			fmt.Sprintf("%.4f", pt.TargetShare), fmt.Sprintf("%d", pt.Dropped),
			fmt.Sprintf("%d", pt.FailedOver), fmt.Sprintf("%.2f", pt.AggregateFPS),
			fmt.Sprintf("%.1f", pt.GPUSeconds), "", "", "", "")
	}
	for _, pt := range rep.Search {
		point("search", pt)
	}
	for _, pt := range rep.Knee {
		point("knee", pt)
	}
	if ke := rep.KneeExact; ke != nil {
		point("knee-exact", *ke)
	}
	for _, sp := range rep.Scaling {
		w.Row("scaling-"+sp.Mode, fmt.Sprintf("%d", sp.Sessions),
			fmt.Sprintf("%d", sp.Workers), fmt.Sprintf("%v", sp.Met),
			fmt.Sprintf("%.3f", sp.P99MTPMs), "", "", "", "", "",
			fmt.Sprintf("%.4f", sp.WallSeconds), fmt.Sprintf("%.2f", sp.SessionsPerSec),
			fmt.Sprintf("%.3f", sp.Speedup), fmt.Sprintf("%.3f", sp.Efficiency))
	}
}
