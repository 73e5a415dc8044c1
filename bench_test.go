// Package qvr_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`). Each benchmark executes the full
// experiment at reduced frame counts and reports the headline metric
// as a custom benchmark unit so regressions in the *science* (not just
// the speed) show up in benchmark diffs.
package qvr_test

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"qvr/internal/capacity"
	"qvr/internal/edge"
	"qvr/internal/experiments"
	"qvr/internal/fleet"
	"qvr/internal/liwc"
	"qvr/internal/motion"
	"qvr/internal/netsim"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
	"qvr/internal/scenario"
	"qvr/internal/scene"
	"qvr/internal/stats"
	"qvr/internal/surrogate"
	"qvr/internal/uca"
)

// benchOpts keeps benchmark iterations affordable while preserving the
// steady-state behaviour (the controller converges within ~40 frames).
var benchOpts = experiments.Options{Frames: 60, Warmup: 40, Seed: 1}

func BenchmarkFig3LocalOnly(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(benchOpts)
		total = 0
		for _, row := range r.Local {
			total += row.TotalMS
		}
	}
	b.ReportMetric(total/5, "avg-local-mtp-ms")
}

func BenchmarkFig3RemoteOnly(b *testing.B) {
	var transmitShare float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(benchOpts)
		var tx, tot float64
		for _, row := range r.Remote {
			s := row.Breakdown
			tx += s.Transmit
			tot += s.Tracking + s.Sending + s.Rendering + s.Transmit + s.Decode + s.ATW + s.Display
		}
		transmitShare = tx / tot
	}
	b.ReportMetric(transmitShare*100, "transmit-share-%")
}

func BenchmarkTable1Static(b *testing.B) {
	var back float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(benchOpts)
		back = 0
		for _, row := range r.Rows {
			back += row.BackSizeKB
		}
		back /= float64(len(r.Rows))
	}
	b.ReportMetric(back, "avg-back-KB")
}

func BenchmarkFig5Interaction(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(benchOpts)
		ratio = r.Rows[2].LatencyMS / r.Rows[0].LatencyMS
	}
	b.ReportMetric(ratio, "near/far-latency-x")
}

func BenchmarkFig6FovealSizing(b *testing.B) {
	var e1 float64
	for i := 0; i < b.N; i++ {
		e1 = experiments.Fig6(benchOpts).MaxBudgetE1
	}
	b.ReportMetric(e1, "budget-e1-deg")
}

func BenchmarkFig12Overall(b *testing.B) {
	var avg, max float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(benchOpts)
		avg, max = r.AvgQVR, r.MaxQVR
	}
	b.ReportMetric(avg, "avg-speedup-x")
	b.ReportMetric(max, "max-speedup-x")
}

func BenchmarkFig12FPSRatios(b *testing.B) {
	var overStatic, overSW float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(benchOpts)
		overStatic, overSW = r.QVROverStaticFPS, r.QVROverSWFPS
	}
	b.ReportMetric(overStatic, "fps-over-static-x")
	b.ReportMetric(overSW, "fps-over-sw-x")
}

func BenchmarkFig13Transmit(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		red = experiments.Fig13(benchOpts).QVROverStaticReduction
	}
	b.ReportMetric(red*100, "transmit-reduction-%")
}

func BenchmarkFig14Convergence(b *testing.B) {
	var settled float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14(experiments.Options{Frames: 300, Warmup: 1, Seed: 1})
		// Frames until GRID's e1 enters its steady-state band (mean of
		// the last 100 frames +/- 5 degrees) and stays for 10 frames.
		s := r.Series[2]
		var mean float64
		for _, e := range s.E1[200:] {
			mean += e
		}
		mean /= float64(len(s.E1) - 200)
		inBand := func(e float64) bool { return e >= mean-5 && e <= mean+5 }
		settled = 300
		run := 0
		for f, e := range s.E1 {
			if inBand(e) {
				run++
				if run == 10 {
					settled = float64(f - 9)
					break
				}
			} else {
				run = 0
			}
		}
	}
	b.ReportMetric(settled, "frames-to-converge")
}

func BenchmarkTable4Eccentricity(b *testing.B) {
	small := experiments.Options{Frames: 40, Warmup: 30, Seed: 1}
	var spread float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table4(small)
		lo, hi := 1e9, 0.0
		for _, c := range r.Cells {
			if c.AvgE1 < lo {
				lo = c.AvgE1
			}
			if c.AvgE1 > hi {
				hi = c.AvgE1
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "e1-spread-deg")
}

func BenchmarkFig15Energy(b *testing.B) {
	small := experiments.Options{Frames: 40, Warmup: 30, Seed: 1}
	var red float64
	for i := 0; i < b.N; i++ {
		red = experiments.Fig15(small).AvgReduction
	}
	b.ReportMetric(red*100, "energy-reduction-%")
}

// BenchmarkPaperEval is one repetition of perfbench's paper-eval
// workload: Fig12, Fig13 and Table4 at 80+30 frames, seed 1 (133
// runs). Its allocs/op and B/op, which the bench-json gate tracks, are
// the experiments' per-repetition set-up, since each worker builds its
// run's config on its own stack and the warm sessions allocate
// nothing; configs built up front again would multiply both.
func BenchmarkPaperEval(b *testing.B) {
	o := experiments.Options{Frames: 80, Warmup: 30, Seed: 1}
	op := func() experiments.Fig12Result {
		experiments.Fig13(o)
		experiments.Table4(o)
		return experiments.Fig12(o)
	}
	r := op() // warm-up: allocations are counted on warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = op()
	}
	b.ReportMetric(r.AvgQVR, "avg-speedup-x")
}

func BenchmarkOverheadAnalysis(b *testing.B) {
	var area float64
	for i := 0; i < b.N; i++ {
		r := experiments.Overhead(experiments.Options{})
		area = r.LIWC.AreaMM2 + 2*r.UCA.AreaMM2
	}
	b.ReportMetric(area, "added-area-mm2")
}

// ---------------------------------------------------------------------------
// Ablation benches: design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

func runQVR(b *testing.B, mutate func(*pipeline.Config)) pipeline.Result {
	b.Helper()
	app, _ := scene.AppByName("Wolf")
	cfg := pipeline.DefaultConfig(pipeline.QVR, app)
	cfg.Frames = 60
	cfg.Warmup = 40
	if mutate != nil {
		mutate(&cfg)
	}
	return pipeline.Run(cfg)
}

// BenchmarkAblationUCAUnits sweeps the UCA instance count: the paper
// chose 2 units at 500 MHz as "sufficient for realtime VR".
func BenchmarkAblationUCAUnits(b *testing.B) {
	for _, units := range []int{1, 2, 4} {
		units := units
		b.Run(map[int]string{1: "units-1", 2: "units-2", 4: "units-4"}[units], func(b *testing.B) {
			var fps float64
			for i := 0; i < b.N; i++ {
				r := runQVR(b, func(c *pipeline.Config) {
					u := uca.Default()
					u.Units = units
					c.UCA = u
				})
				fps = r.FPS()
			}
			b.ReportMetric(fps, "fps")
		})
	}
}

// BenchmarkAblationAlpha sweeps the LIWC reward-update rate.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []float64{0.1, 0.3, 0.6} {
		alpha := alpha
		name := map[float64]string{0.1: "alpha-0.1", 0.3: "alpha-0.3", 0.6: "alpha-0.6"}[alpha]
		b.Run(name, func(b *testing.B) {
			var mtp float64
			for i := 0; i < b.N; i++ {
				r := runQVR(b, func(c *pipeline.Config) {
					l := liwc.DefaultConfig()
					l.Alpha = alpha
					c.LIWC = l
				})
				mtp = r.AvgMTPSeconds() * 1000
			}
			b.ReportMetric(mtp, "mtp-ms")
		})
	}
}

// BenchmarkAblationTargetFloor sweeps the budget-filling floor that
// trades network traffic against local GPU load. A light benchmark is
// used so the floor (not the remote chain) is the binding constraint.
func BenchmarkAblationTargetFloor(b *testing.B) {
	app, _ := scene.AppByName("HL2-L")
	for _, floor := range []float64{0.5, 0.75, 0.95} {
		floor := floor
		name := map[float64]string{0.5: "floor-0.50", 0.75: "floor-0.75", 0.95: "floor-0.95"}[floor]
		b.Run(name, func(b *testing.B) {
			var kb, e1 float64
			for i := 0; i < b.N; i++ {
				cfg := pipeline.DefaultConfig(pipeline.QVR, app)
				cfg.Frames = 60
				cfg.Warmup = 40
				l := liwc.DefaultConfig()
				l.TargetFloor = floor
				cfg.LIWC = l
				r := pipeline.Run(cfg)
				kb = r.AvgBytesSent() / 1024
				e1 = r.AvgE1()
			}
			b.ReportMetric(kb, "payload-KB")
			b.ReportMetric(e1, "e1-deg")
		})
	}
}

// BenchmarkAblationMotionProfile measures controller robustness across
// user intensities.
func BenchmarkAblationMotionProfile(b *testing.B) {
	for _, p := range []motion.Profile{motion.Calm, motion.Normal, motion.Intense} {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var fps float64
			for i := 0; i < b.N; i++ {
				r := runQVR(b, func(c *pipeline.Config) { c.Profile = p })
				fps = r.FPS()
			}
			b.ReportMetric(fps, "fps")
		})
	}
}

// BenchmarkPipelineFrame measures raw simulator throughput: how fast
// one simulated Q-VR frame executes on the event engine. The session
// is built before the timer starts and streams into a FrameStats, so
// neither setup nor frame materialization is timed.
func BenchmarkPipelineFrame(b *testing.B) {
	app, _ := scene.AppByName("HL2-H")
	cfg := pipeline.DefaultConfig(pipeline.QVR, app)
	cfg.Warmup = 0
	cfg.Frames = b.N
	s := pipeline.NewSession(cfg)
	var st pipeline.FrameStats
	b.ResetTimer()
	s.RunSink(&st)
}

// BenchmarkAblationControllerLatency quantifies the paper's Section 7
// design-choice argument: the LIWC's table lookup is effectively free,
// while a DNN-accelerator controller (edge-TPU class, 10-20 ms per
// inference) would consume the entire frame budget before rendering
// begins.
func BenchmarkAblationControllerLatency(b *testing.B) {
	cases := []struct {
		name string
		lat  float64
	}{
		{"liwc-ns", 0},
		{"npu-2ms", 0.002},
		{"edgetpu-15ms", 0.015},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var fps float64
			for i := 0; i < b.N; i++ {
				r := runQVR(b, func(cfg *pipeline.Config) {
					cfg.ControllerLatencySeconds = c.lat
				})
				fps = r.FPS()
			}
			b.ReportMetric(fps, "fps")
		})
	}
}

// BenchmarkAblationRemoteGPUs sweeps the remote cluster size (the
// paper's server is an 8-way chiplet multi-GPU).
func BenchmarkAblationRemoteGPUs(b *testing.B) {
	for _, n := range []int{1, 2, 8} {
		n := n
		b.Run(map[int]string{1: "gpus-1", 2: "gpus-2", 8: "gpus-8"}[n], func(b *testing.B) {
			var mtp float64
			for i := 0; i < b.N; i++ {
				r := runQVR(b, func(cfg *pipeline.Config) {
					cfg.Remote.GPUs = n
				})
				mtp = r.AvgMTPSeconds() * 1000
			}
			b.ReportMetric(mtp, "mtp-ms")
		})
	}
}

// BenchmarkAblationNetworks runs Q-VR under each Table 2 condition.
func BenchmarkAblationNetworks(b *testing.B) {
	for _, cond := range netsim.Conditions {
		cond := cond
		b.Run(cond.Name, func(b *testing.B) {
			var fps float64
			for i := 0; i < b.N; i++ {
				r := runQVR(b, func(cfg *pipeline.Config) {
					cfg.Network = cond
				})
				fps = r.FPS()
			}
			b.ReportMetric(fps, "fps")
		})
	}
}

// BenchmarkTailLatency reports P99 motion-to-photon latency — the
// judder metric — for Q-VR vs the static baseline.
func BenchmarkTailLatency(b *testing.B) {
	app, _ := scene.AppByName("UT3")
	for _, d := range []pipeline.Design{pipeline.StaticCollab, pipeline.QVR} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				cfg := pipeline.DefaultConfig(d, app)
				cfg.Frames = 120
				cfg.Warmup = 40
				p99 = pipeline.Run(cfg).PercentileMTP(0.99) * 1000
			}
			b.ReportMetric(p99, "p99-mtp-ms")
		})
	}
}

// ---------------------------------------------------------------------------
// Fleet benches: wall-clock throughput of the concurrent multi-session
// engine. Sessions are independent deterministic simulations, so the
// workers-N sub-benchmarks run identical inputs to identical results;
// comparing their ns/op measures the engine's parallel scaling across
// however many cores the host exposes (on a single-core host the
// worker counts tie, by construction).
// ---------------------------------------------------------------------------

// benchFleet runs one fleet shape and reports the science alongside
// the speed, so both kinds of regression show up in benchmark diffs.
func benchFleet(b *testing.B, sessions, workers int) {
	b.Helper()
	mix, ok := fleet.MixByName("mixed")
	if !ok {
		b.Fatal("mixed mix missing")
	}
	specs, err := mix.Specs(sessions, pipeline.QVR, 40, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	var s fleet.Summary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = fleet.Run(fleet.Config{Specs: specs, Workers: workers}).Summarize()
	}
	b.ReportMetric(s.AggregateFPS, "agg-fps")
	b.ReportMetric(s.P99MTPMs, "p99-mtp-ms")
}

// ---------------------------------------------------------------------------
// Streaming-metrics benches: the FrameSink pipeline against the
// materialized-records baseline it replaced. Run with -benchmem: the
// point is bytes/op and allocs/op at identical reported science. The
// paper's evaluation length (300 measured frames after 60 warmup) is
// used so the comparison reflects real sessions, where per-frame
// record storage — not per-session setup — dominates the footprint.
// ---------------------------------------------------------------------------

// streamingBenchSpecs is the shared fleet shape for the pair.
func streamingBenchSpecs(b *testing.B) []fleet.SessionSpec {
	b.Helper()
	mix, ok := fleet.MixByName("mixed")
	if !ok {
		b.Fatal("mixed mix missing")
	}
	specs, err := mix.Specs(32, pipeline.QVR, 300, 60, 1)
	if err != nil {
		b.Fatal(err)
	}
	return specs
}

// BenchmarkFleetStreaming is the new path: fleet.Run streams every
// session through worker-local StatsSinks; per-session state is the
// compact summary plus one float64 per frame.
func BenchmarkFleetStreaming(b *testing.B) {
	specs := streamingBenchSpecs(b)
	op := func() fleet.Summary { return fleet.Run(fleet.Config{Specs: specs, Workers: 4}).Summarize() }
	s := op() // warm-up: allocations are counted on warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = op()
	}
	b.ReportMetric(s.AggregateFPS, "agg-fps")
	b.ReportMetric(s.P99MTPMs, "p99-mtp-ms")
	b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkFleetSource is BenchmarkFleetStreaming's fleet driven
// through Config.Source with no Each sink: the same 32 exact sessions,
// minted per index inside the workers and retaining no per-session
// results. Its allocs gate the streamed population path.
func BenchmarkFleetSource(b *testing.B) {
	specs := streamingBenchSpecs(b)
	src := &fleet.SpecSource{
		N:              len(specs),
		MeasuredFrames: specs[0].Config.MeasuredFrames(),
		At:             func(i int) fleet.SessionSpec { return specs[i] },
	}
	op := func() fleet.Summary { return fleet.Run(fleet.Config{Source: src, Workers: 4}).Summarize() }
	s := op() // warm-up: allocations are counted on warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = op()
	}
	b.ReportMetric(s.AggregateFPS, "agg-fps")
	b.ReportMetric(s.P99MTPMs, "p99-mtp-ms")
	b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkFleetSurrogate is the mixed-fidelity twin of
// BenchmarkFleetStreaming: the identical 32-session fleet, but with
// the calibrated analytic fast path carrying every unsampled session
// while the default stratified exact sample cross-checks it (the run
// fails the bench if the refute harness trips). Both benchmarks
// report sessions/s, so their ratio in the BENCH_edge.json stream is
// the fast path's speedup at identical fleet shape. The per-op cost
// here includes calibration (a fresh model per op, as every
// production run calibrates), which bounds the speedup at this small
// session count; the giga-steady smoke shows the asymptotic ratio.
func BenchmarkFleetSurrogate(b *testing.B) {
	specs := streamingBenchSpecs(b)
	op := func() fleet.Result {
		return fleet.Run(fleet.Config{Specs: specs, Workers: 4, Fidelity: &fleet.Fidelity{
			Runner: surrogate.New(), ExactFraction: fleet.DefaultExactFraction,
		}})
	}
	r := op() // warm-up: allocations are counted on warm pools
	s := r.Summarize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = op()
		s = r.Summarize()
	}
	if r.Fidelity == nil || r.Fidelity.Refuted {
		b.Fatal("mixed-fidelity run refuted or missing its fidelity report")
	}
	b.ReportMetric(s.AggregateFPS, "agg-fps")
	b.ReportMetric(s.P99MTPMs, "p99-mtp-ms")
	b.ReportMetric(r.Fidelity.MaxError*100, "max-error-%")
	b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkFleetMaterialized reproduces the pre-streaming engine:
// every session materializes its full []FrameRecord and the roll-up
// re-scans the records, exactly as fleet.Summarize used to. Its
// reported science must match BenchmarkFleetStreaming's; its bytes/op
// must not — that delta is what the FrameSink refactor bought.
func BenchmarkFleetMaterialized(b *testing.B) {
	specs := streamingBenchSpecs(b)
	var s fleet.Summary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := make([]pipeline.Result, len(specs))
		for j, sp := range specs {
			results[j] = pipeline.NewSession(sp.Config).Run()
		}
		s = fleet.Summary{Sessions: len(specs)}
		var mtps []float64
		meeting := 0
		for _, res := range results {
			for _, f := range res.Frames {
				mtps = append(mtps, f.MTPSeconds)
			}
			fps := res.FPS()
			s.MeanFPS += fps
			s.AggregateFPS += fps
			s.AggregateMBps += fps * res.AvgBytesSent() / 1e6
			if fps >= 0.95*pipeline.TargetFPS {
				meeting++
			}
		}
		s.MeanFPS /= float64(len(results))
		s.TargetShare = float64(meeting) / float64(len(results))
		sort.Float64s(mtps)
		s.P50MTPMs = stats.NearestRankSorted(mtps, 0.50) * 1000
		s.P95MTPMs = stats.NearestRankSorted(mtps, 0.95) * 1000
		s.P99MTPMs = stats.NearestRankSorted(mtps, 0.99) * 1000
	}
	b.ReportMetric(s.AggregateFPS, "agg-fps")
	b.ReportMetric(s.P99MTPMs, "p99-mtp-ms")
}

// BenchmarkFleetCounters prices the observability layer: the same
// 32-session fleet with the counter registry off and on. The on
// variant's allocs/op must stay within the gate of the off variant's —
// the per-frame path touches only fixed-size int64 arrays in a
// worker-local shard, so the only extra allocations are the per-run
// registry, one shard per worker, and the final snapshot, never
// anything per frame (9,600 measured frames per op here).
func BenchmarkFleetCounters(b *testing.B) {
	specs := streamingBenchSpecs(b)
	b.Run("off", func(b *testing.B) {
		op := func() fleet.Summary { return fleet.Run(fleet.Config{Specs: specs, Workers: 4}).Summarize() }
		s := op() // warm-up: allocations are counted on warm pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s = op()
		}
		b.ReportMetric(s.AggregateFPS, "agg-fps")
	})
	b.Run("on", func(b *testing.B) {
		op := func() (fleet.Summary, int64) {
			reg := obs.New()
			s := fleet.Run(fleet.Config{Specs: specs, Workers: 4, Obs: reg}).Summarize()
			return s, reg.Snapshot().Counter(obs.CFramesMeasured)
		}
		s, frames := op() // warm-up: allocations are counted on warm pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, frames = op()
		}
		b.ReportMetric(s.AggregateFPS, "agg-fps")
		b.ReportMetric(float64(frames), "frames-counted")
	})
}

func BenchmarkFleet8Sessions(b *testing.B) {
	for _, w := range []int{1, 4} {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			benchFleet(b, 8, w)
		})
	}
}

func BenchmarkFleet64Sessions(b *testing.B) {
	for _, w := range []int{1, 4} {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			benchFleet(b, 64, w)
		})
	}
}

// ---------------------------------------------------------------------------
// Edge-grid benches: the geo-distributed placement scheduler and the
// regional-outage timeline, with the grid's science (migrations, tail
// latency) reported alongside the speed.
// ---------------------------------------------------------------------------

// benchTopo is the edge-regional-outage topology, rebuilt inline so
// the placement micro-benchmark needs no scenario machinery.
func benchTopo() edge.Topology {
	return edge.Topology{Clusters: []edge.ClusterSpec{
		{Name: "us-west", GPUs: 3, RTTSeconds: 0.040,
			RegionRTT: map[string]float64{"us": 0.008, "eu": 0.070, "ap": 0.090}},
		{Name: "eu-central", GPUs: 3, RTTSeconds: 0.040,
			RegionRTT: map[string]float64{"us": 0.070, "eu": 0.010, "ap": 0.110}},
		{Name: "ap-south", GPUs: 2, RTTSeconds: 0.060,
			RegionRTT: map[string]float64{"us": 0.090, "eu": 0.110, "ap": 0.012}},
	}}
}

// BenchmarkEdgePlacement measures the scheduler alone: one placement
// round plus one outage round over a 40-session fleet (exactly the
// surviving sites' queue-bounded capacity, so the outage migrates
// everyone instead of failing anyone over), no frame simulation.
// This is the fleet-admission hot path a production control plane
// would run every rebalance tick.
func BenchmarkEdgePlacement(b *testing.B) {
	mix, _ := fleet.MixByName("mixed")
	specs, err := mix.Specs(40, pipeline.QVR, 1, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	var report fleet.GridReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := edge.NewGrid(benchTopo(), edge.Score)
		if err != nil {
			b.Fatal(err)
		}
		g.Place(specs)
		if err := g.BeginPhase(map[string]int{"eu-central": 0}, nil); err != nil {
			b.Fatal(err)
		}
		_, report = g.Place(specs)
	}
	b.ReportMetric(float64(report.Migrated), "migrations")
	b.ReportMetric(float64(report.FailedOver), "failed-over")
}

// BenchmarkEdgeRegionalOutage runs the built-in grid timeline in
// miniature and reports the headline science: total migrations and
// the worst-phase P99 degradation over baseline.
func BenchmarkEdgeRegionalOutage(b *testing.B) {
	sc, err := scenario.Builtin("edge-regional-outage")
	if err != nil {
		b.Fatal(err)
	}
	var roll fleet.Rollup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := scenario.Run(sc, scenario.Options{FramesOverride: 12, WarmupOverride: scenario.Warmup(4)})
		if err != nil {
			b.Fatal(err)
		}
		roll = r.Rollup
	}
	b.ReportMetric(float64(roll.TotalMigrated), "migrations")
	b.ReportMetric(roll.DegradationFactor, "outage-p99-x")
}

// BenchmarkScenarioSteady is mega-steady in miniature: the built-in's
// ramp, peak and sustain phases at a hundredth of their population
// (420 session-windows), 2 measured frames after 1 warm-up, workers 4.
// Its allocs gate the scenario driver's per-phase path, which hands
// each population to the fleet as a Source and keeps no per-session
// results.
func BenchmarkScenarioSteady(b *testing.B) {
	sc, err := scenario.Builtin("mega-steady")
	if err != nil {
		b.Fatal(err)
	}
	sc.Phases = append([]scenario.Phase(nil), sc.Phases...)
	sessions := 0
	for i := range sc.Phases {
		sc.Phases[i].Sessions /= 100
		sessions += sc.Phases[i].Sessions
	}
	opt := scenario.Options{Workers: 4, FramesOverride: 2, WarmupOverride: scenario.Warmup(1)}
	op := func() fleet.Rollup {
		r, err := scenario.Run(sc, opt)
		if err != nil {
			b.Fatal(err)
		}
		return r.Rollup
	}
	roll := op() // warm-up: allocations are counted on warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roll = op()
	}
	b.ReportMetric(roll.WorstP99Ms, "worst-p99-mtp-ms")
	b.ReportMetric(float64(sessions*b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkAutoscaleFlashCrowd runs the closed-loop capacity story in
// miniature and reports the controller's science: GPU-seconds saved
// against static peak provisioning, SLO attainment, and how many
// scale decisions the flash crowd cost.
func BenchmarkAutoscaleFlashCrowd(b *testing.B) {
	sc, err := scenario.Builtin("edge-autoscale-flashcrowd")
	if err != nil {
		b.Fatal(err)
	}
	var rep *fleet.AutoscaleReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := scenario.Run(sc, scenario.Options{FramesOverride: 12, WarmupOverride: scenario.Warmup(4)})
		if err != nil {
			b.Fatal(err)
		}
		rep = r.Autoscale
	}
	b.ReportMetric(rep.SavedFraction*100, "gpu-s-saved-%")
	b.ReportMetric(float64(rep.SLOMetPhases), "slo-met-phases")
	b.ReportMetric(float64(len(rep.Events)), "scale-events")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkCapacityProbe runs the HPL-style capacity probe in
// miniature — binary search plus a trimmed knee sweep, no scaling
// study — and reports the probe's science (the knee itself and how
// many fleet evaluations the search cost) alongside allocs/op, which
// the bench-json gate tracks: the probe re-runs whole fleets per
// search step, so allocation creep here multiplies across every point.
// cpu-share is the process CPU time over the timed ops divided by
// their wall time x GOMAXPROCS: the share of the host the probe's
// many small fleets keep busy.
func BenchmarkCapacityProbe(b *testing.B) {
	sc, err := scenario.Builtin("capacity-probe")
	if err != nil {
		b.Fatal(err)
	}
	op := func() capacity.Report {
		rep, err := capacity.Probe(capacity.Config{
			Scenario:       sc,
			GridPoints:     3,
			FramesOverride: 8,
			WarmupOverride: scenario.Warmup(4),
		})
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	rep := op() // warm-up: allocations are counted on warm pools
	b.ReportAllocs()
	b.ResetTimer()
	cpu := cpuTime(b)
	for i := 0; i < b.N; i++ {
		rep = op()
	}
	cpu = cpuTime(b) - cpu
	b.ReportMetric(float64(rep.KneeSessions), "knee-sessions")
	b.ReportMetric(float64(len(rep.Search)), "search-evals")
	b.ReportMetric(cpu.Seconds()/(b.Elapsed().Seconds()*float64(runtime.GOMAXPROCS(0))), "cpu-share")
}

// BenchmarkSurveyProxy runs the Section 3.1 perception study proxy and
// reports the minimum foveal fidelity across eccentricities.
func BenchmarkSurveyProxy(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.Survey(benchOpts)
		worst = 1e9
		for _, row := range r.Rows {
			if row.FovealPSNR < worst {
				worst = row.FovealPSNR
			}
		}
	}
	b.ReportMetric(worst, "min-foveal-psnr-dB")
}
