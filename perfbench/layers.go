package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"qvr/internal/edge"
	"qvr/internal/fleet"
	"qvr/internal/framesink"
	"qvr/internal/obs"
	"qvr/internal/obs/series"
	"qvr/internal/pipeline"
	"qvr/internal/scenario"
	"qvr/internal/sim"
	"qvr/internal/surrogate"
)

// The traced run. It repeats the workload with and without the
// benchmark's spans, then times the calls into each layer's public
// functions directly from here — nothing is traced inside the program.
// Spans stay in memory and are written as one Chrome trace at the end.

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A traced run reports all of them; a
// layer the workload does not exercise reads 0 (README.md maps each
// metric to the workload it belongs to).
var layerMetrics = []metricSpec{
	{"sim.ns_per_event", "ns"},
	{"pipeline.ns_per_frame.local", "ns"},
	{"pipeline.ns_per_frame.static", "ns"},
	{"pipeline.ns_per_frame.ffr", "ns"},
	{"pipeline.ns_per_frame.dfr", "ns"},
	{"pipeline.ns_per_frame.qvr-sw", "ns"},
	{"pipeline.ns_per_frame.qvr", "ns"},
	{"pipeline.allocs_per_frame.local", "count"},
	{"pipeline.allocs_per_frame.static", "count"},
	{"pipeline.allocs_per_frame.ffr", "count"},
	{"pipeline.allocs_per_frame.dfr", "count"},
	{"pipeline.allocs_per_frame.qvr-sw", "count"},
	{"pipeline.allocs_per_frame.qvr", "count"},
	{"pipeline.session_setup_us", "us"},
	{"framesink.ns_per_frame", "ns"},
	{"fleet.mint_ns_per_session", "ns"},
	{"fleet.run_s", "s"},
	{"fleet.summarize_s", "s"},
	{"fleet.samples_per_session", "count"},
	{"fleet.pool_busy_share", "share"},
	{"fleet.fidelity_max_error", "ratio"},
	{"surrogate.classes", "count"},
	{"surrogate.calibrate_s", "s"},
	{"surrogate.predict_ns_per_session", "ns"},
	{"surrogate.exact_sessions", "count"},
	{"surrogate.speedup_vs_exact", "ratio"},
	{"edge.place_us_per_session", "us"},
	{"edge.migrations", "count"},
	{"capacity.points", "count"},
	{"capacity.point_s", "s"},
	{"scenario.parse_us", "us"},
	{"obs.overhead_share", "share"},
	{"experiments.fig_s.fig12", "s"},
	{"experiments.fig_s.fig13", "s"},
	{"experiments.fig_s.table4", "s"},
	{"experiments.paper_error", "ratio"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_cycles", "count"},
	{"host.steal_share", "share"},
	{"trace.overhead_sessions_per_s", "1/s"},
	{"self_s.bench", "s"},
	{"self_s.experiments", "s"},
	{"self_s.scenario", "s"},
	{"self_s.capacity", "s"},
	{"self_s.fleet", "s"},
	{"self_s.pipeline", "s"},
	{"self_s.sim", "s"},
	{"self_s.framesink", "s"},
	{"self_s.surrogate", "s"},
	{"self_s.edge", "s"},
	{"self_s.obs", "s"},
}

// tracedPairs is how many untraced and traced repetitions the overhead
// comparison alternates.
const tracedPairs = 2

func tracedRun(w workload, seed int64, workers int, outDir string) (result, error) {
	cpu0 := readCPUTimes()
	res := result{record: record{Workload: w.name, Seed: seed, Trace: true, Timings: map[string]summary{}}}
	tr := newTracer()
	m := map[string]float64{}

	var j job
	var err error
	tr.timed("bench.setup", func() { j, err = w.setup(seed, workers) })
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	ref, refDigest := res.warmUp(j)

	// Untraced and traced repetitions alternate, so host drift lands on
	// both sides of the overhead figure. The program's own counters are
	// collected on the traced side.
	reg := obs.New()
	var plain, traced []float64
	var last outcome
	gc0 := readGC()
	for range tracedPairs {
		for _, on := range []bool{false, true} {
			var t *tracer
			var r *obs.Registry
			end := func() {}
			if on {
				t, r = tr, reg
				end = tr.begin("bench.repetition")
			}
			start := time.Now()
			out, err := j.run(t, r)
			d := time.Since(start).Seconds()
			end()
			res.attempted++
			if err == nil {
				err = sameOutput(out, ref, refDigest)
			}
			if err != nil {
				res.fail(err)
				continue
			}
			last = out
			if on {
				traced = append(traced, d)
			} else {
				plain = append(plain, d)
			}
		}
	}
	gc1 := readGC()
	m["runtime.gc_cpu_share"] = ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
	m["runtime.gc_cycles"] = float64(gc1.cycles-gc0.cycles) / float64(2*tracedPairs)
	plainS, tracedS := summarize(plain), summarize(traced)
	res.record.Timings["repetition_s"] = plainS
	res.record.Timings["traced_repetition_s"] = tracedS
	m["trace.overhead_sessions_per_s"] = ratio(float64(ref.sessions), tracedS.Median) - ratio(float64(ref.sessions), plainS.Median)
	if last.paperError >= 0 {
		m["experiments.paper_error"] = last.paperError
	}
	snap := reg.Snapshot()
	perRep := func(c obs.Counter) float64 { return float64(snap.Counter(c)) / float64(max(1, len(traced))) }
	m["capacity.points"] = perRep(obs.CProbePoints)
	m["edge.migrations"] = perRep(obs.CPlaceMigrated)
	for name, key := range map[string]string{
		"experiments.Fig12": "experiments.fig_s.fig12", "experiments.Fig13": "experiments.fig_s.fig13",
		"experiments.Table4": "experiments.fig_s.table4",
	} {
		if d := tr.durations(name); len(d) > 0 {
			m[key] = summarize(d).Median
		}
	}

	if err := probeLayers(tr, j, workers, m); err != nil {
		res.attempted++
		res.fail(err)
	}

	for layer, s := range selfSeconds(tr.spans) {
		m["self_s."+layer] = s
	}
	m["host.steal_share"] = stealShare(cpu0, readCPUTimes())
	res.record.Host = newHostInfo(workers, m["host.steal_share"])

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := writeTraceFile(path, tr.spans, map[string]any{"workload": w.name, "seed": seed}); err != nil {
		return res, err
	}
	res.record.TraceFile = path

	res.metrics = metricsOf(layerMetrics, m)
	return res, nil
}

func writeTraceFile(path string, spans []span, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations lists the seconds of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// gcSample is the runtime's cumulative GC accounting.
type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

// probeLayers times the layers the workload exercises.
func probeLayers(tr *tracer, j job, workers int, m map[string]float64) error {
	switch j := j.(type) {
	case *paperJob:
		var cfgs []pipeline.Config
		for _, d := range paperDesigns {
			probePipeline(tr, d.key, j.configs[d.key], m)
			cfgs = append(cfgs, j.configs[d.key]...)
		}
		probeSessionSetup(tr, cfgs, m)
		probeFramesink(tr, j.configs["qvr"][0], m)
		probeSim(tr, m)
	case *scenarioJob:
		if err := probeParse(tr, j.text, m); err != nil {
			return err
		}
		if err := probeMega(tr, j, workers, m); err != nil {
			return err
		}
		return probeFastPath(tr, j.sc, workers, m)
	case *capacityJob:
		if err := probeParse(tr, j.text, m); err != nil {
			return err
		}
		return probeCapacity(tr, j, workers, m)
	}
	return nil
}

// probePipeline runs each config through pipeline.NewSession(cfg).RunSink
// and reports time and heap allocations per simulated frame.
func probePipeline(tr *tracer, key string, cfgs []pipeline.Config, m map[string]float64) {
	var runD time.Duration
	var frames, allocs uint64
	var m0, m1 runtime.MemStats
	for _, cfg := range cfgs {
		s := pipeline.NewSession(cfg)
		var sink framesink.StatsSink
		runtime.ReadMemStats(&m0)
		runD += tr.timed("pipeline.Session.RunSink", func() { s.RunSink(&sink) })
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		frames += uint64(cfg.MeasuredFrames() + cfg.Warmup)
	}
	m["pipeline.ns_per_frame."+key] = ratio(float64(runD.Nanoseconds()), float64(frames))
	m["pipeline.allocs_per_frame."+key] = ratio(float64(allocs), float64(frames))
}

// probeSessionSetup times pipeline.NewSession alone.
func probeSessionSetup(tr *tracer, cfgs []pipeline.Config, m map[string]float64) {
	d := tr.timed("pipeline.NewSession", func() {
		for _, cfg := range cfgs {
			pipeline.NewSession(cfg)
		}
	})
	m["pipeline.session_setup_us"] = ratio(d.Seconds()*1e6, float64(len(cfgs)))
}

// probeFramesink replays one session's frames through
// StatsSink.Observe and Summary, reusing one sample buffer.
func probeFramesink(tr *tracer, cfg pipeline.Config, m map[string]float64) {
	frames := pipeline.NewSession(cfg).Run().Frames
	const sessions = 5000
	buf := make([]float64, 0, len(frames))
	var sink framesink.StatsSink
	d := tr.timed("framesink.StatsSink", func() {
		for range sessions {
			sink.Reset(buf)
			for _, f := range frames {
				sink.Observe(f)
			}
			sink.Summary()
		}
	})
	m["framesink.ns_per_frame"] = ratio(float64(d.Nanoseconds()), float64(sessions*len(frames)))
}

// simChain is a frame-shaped event chain: each frame forks a local and
// a remote branch of two stages each and joins them before the next
// frame, with callbacks bound once as the pipeline binds its own.
type simChain struct {
	eng                               *sim.Engine
	frames, pending                   int
	start, local, remote, join, stage func()
}

func newSimChain(frames int) *simChain {
	c := &simChain{eng: sim.NewEngine(), frames: frames}
	c.start = func() {
		c.pending = 2
		c.eng.Schedule(sim.Us(300), c.local)
		c.eng.Schedule(sim.Us(500), c.remote)
	}
	c.local = func() { c.eng.Schedule(sim.Us(800), c.join) }
	c.remote = func() { c.eng.Schedule(sim.Us(1200), c.join) }
	c.join = func() {
		if c.pending--; c.pending == 0 {
			c.eng.Schedule(sim.Us(100), c.stage)
		}
	}
	c.stage = func() {
		if c.frames--; c.frames > 0 {
			c.eng.Schedule(0, c.start)
		}
	}
	return c
}

func probeSim(tr *tracer, m map[string]float64) {
	c := newSimChain(200_000)
	c.eng.Schedule(0, c.start)
	d := tr.timed("sim.Engine.Run", c.eng.Run)
	m["sim.ns_per_event"] = ratio(float64(d.Nanoseconds()), float64(c.eng.Steps()))
}

// probeParse times scenario.ParseString on the workload's generated
// text, repeated until the batch is far above clock resolution.
func probeParse(tr *tracer, text string, m map[string]float64) error {
	const reps = 2000
	var err error
	d := tr.timed("scenario.ParseString", func() {
		for range reps {
			if _, err = scenario.ParseString(text); err != nil {
				return
			}
		}
	})
	m["scenario.parse_us"] = ratio(d.Seconds()*1e6, reps)
	return err
}

// probeFleet times one fleet.Run and its Summarize.
func probeFleet(tr *tracer, fc fleet.Config, n, workers int, m map[string]float64) fleet.Result {
	cpu0 := processCPU()
	var r fleet.Result
	runD := tr.timed("fleet.Run", func() { r = fleet.Run(fc) })
	cpu := processCPU() - cpu0
	sumD := tr.timed("fleet.Result.Summarize", func() { r.Summarize() })
	m["fleet.run_s"] = runD.Seconds()
	m["fleet.summarize_s"] = sumD.Seconds()
	m["fleet.pool_busy_share"] = ratio(cpu.Seconds(), float64(workers)*runD.Seconds())
	if fc.Source == nil {
		var samples int
		for _, s := range r.Sessions {
			samples += len(s.Stats.MTPSorted)
		}
		m["fleet.samples_per_session"] = ratio(float64(samples), float64(n))
	}
	return r
}

func probeMega(tr *tracer, j *scenarioJob, workers int, m map[string]float64) error {
	sc := j.sc
	mix, _ := fleet.MixByName(sc.Mix) // setup resolved it
	var specs []fleet.SessionSpec
	var err error
	d := tr.timed("fleet.Mix.Specs", func() {
		specs, err = mix.Specs(megaPeak, sc.Design, sc.Frames, sc.Warmup, sc.Seed)
	})
	if err != nil {
		return err
	}
	m["fleet.mint_ns_per_session"] = ratio(float64(d.Nanoseconds()), megaPeak)

	fc := fleet.Config{Specs: specs, Workers: workers}
	probeFleet(tr, fc, len(specs), workers, m)

	// Counters and the series recorder on versus off, alternated.
	var off, on []float64
	for range tracedPairs {
		off = append(off, tr.timed("obs.off", func() {
			var r fleet.Result
			tr.timed("fleet.Run", func() { r = fleet.Run(fc) })
			r.Summarize()
		}).Seconds())
		on = append(on, tr.timed("obs.on", func() {
			reg := obs.New()
			rec := series.New(reg, 0)
			c := fc
			c.Obs = reg
			var r fleet.Result
			tr.timed("fleet.Run", func() { r = fleet.Run(c) })
			rec.EndWindow(series.Window{T1: 60, Label: "peak", Gauges: series.GaugesOf(r.Summarize(), nil)})
		}).Seconds())
	}
	m["obs.overhead_share"] = ratio(summarize(on).Median, summarize(off).Median) - 1

	cfgs := make([]pipeline.Config, 0, len(specs))
	for _, sp := range specs {
		cfgs = append(cfgs, sp.Config)
	}
	probeSessionSetup(tr, cfgs, m)
	probePipeline(tr, "qvr", cfgs, m)
	probeFramesink(tr, cfgs[0], m)
	return nil
}

// fastPathSessions sizes the mixed-fidelity probe: a lean population
// with giga-steady's fast-path settings (calibrated surrogate, 0.2%
// stratified exact sample) on mega-steady's mix and frame budget.
const (
	fastPathSessions      = 100_000
	fastPathExactFraction = 0.002
)

// probeFastPath times the lean engine and the surrogate on mega-steady's
// population. A refuted surrogate is reported through
// fleet.fidelity_max_error rather than failing the traced run.
func probeFastPath(tr *tracer, sc scenario.Scenario, workers int, m map[string]float64) error {
	mix, _ := fleet.MixByName(sc.Mix) // setup resolved it
	mint, err := mix.Minter(sc.Design, sc.Frames, sc.Warmup, sc.Seed)
	if err != nil {
		return err
	}
	reg := obs.New()
	var r fleet.Result
	tr.timed("fleet.Run", func() {
		r = fleet.Run(fleet.Config{
			Workers:  workers,
			Source:   &fleet.SpecSource{N: fastPathSessions, MeasuredFrames: sc.Frames, At: mint},
			Fidelity: &fleet.Fidelity{Runner: surrogate.New(), ExactFraction: fastPathExactFraction},
			Obs:      reg,
		})
	})
	if r.Fidelity == nil {
		return fmt.Errorf("fast-path probe: fleet run carried no fidelity report")
	}
	m["fleet.fidelity_max_error"] = r.Fidelity.MaxError
	snap := reg.Snapshot()
	m["surrogate.exact_sessions"] = float64(snap.Counter(obs.CFidelityExact) + snap.Counter(obs.CSurrogateCalibrated))

	// The surrogate alone: classify the population and calibrate
	// on the first members of each class in index order, as the fleet
	// does, then predict.
	model := surrogate.New()
	members := map[pipeline.Config]int{}
	var calib []pipeline.Config
	for i := range fastPathSessions {
		cfg := mint(i).Config
		key := model.ClassOf(cfg)
		if members[key] < fleet.DefaultCalibration {
			calib = append(calib, cfg)
		}
		members[key]++
	}
	m["surrogate.calibrate_s"] = tr.timed("surrogate.Model.Calibrate", func() { model.Calibrate(calib) }).Seconds()
	m["surrogate.classes"] = float64(model.Classes())

	predict := make([]pipeline.Config, 10_000)
	for i := range predict {
		predict[i] = mint(i).Config
	}
	buf := make([]float64, 0, sc.Frames)
	d := tr.timed("surrogate.Model.RunSession", func() {
		for _, cfg := range predict {
			model.RunSession(cfg, buf[:0])
		}
	})
	m["surrogate.predict_ns_per_session"] = ratio(float64(d.Nanoseconds()), float64(len(predict)))

	// Exact against surrogate on the same configs, interleaved so that
	// host drift falls on both.
	const pairs = 300
	var exact, fast time.Duration
	for _, cfg := range predict[:pairs] {
		exact += tr.timed("pipeline.Session.RunSink", func() {
			var sink framesink.StatsSink
			sink.Reset(buf[:0])
			pipeline.NewSession(cfg).RunSink(&sink)
		})
		fast += tr.timed("surrogate.Model.RunSession", func() { model.RunSession(cfg, buf[:0]) })
	}
	m["surrogate.speedup_vs_exact"] = ratio(float64(exact), float64(fast))
	return nil
}

func probeCapacity(tr *tracer, j *capacityJob, workers int, m map[string]float64) error {
	sc := j.cfg.Scenario
	policy, _ := edge.PolicyByName(sc.Placement) // setup resolved it
	grid, err := edge.NewGrid(sc.Topology, policy)
	if err != nil {
		return err
	}
	if err := grid.BeginPhase(nil, nil); err != nil {
		return err
	}
	const rounds = 500
	d := tr.timed("edge.Grid.Place", func() {
		for range rounds {
			grid.Place(j.specs)
		}
	})
	m["edge.place_us_per_session"] = ratio(d.Seconds()*1e6, float64(rounds*len(j.specs)))

	// One probe point at the search ceiling's midpoint, twice.
	n := len(j.specs) / 2
	var pts []float64
	for range 2 {
		var perr error
		pts = append(pts, tr.timed("scenario.RunPoint", func() {
			_, perr = scenario.RunPoint(sc, n, scenario.Options{Workers: workers})
		}).Seconds())
		if perr != nil {
			return perr
		}
	}
	m["capacity.point_s"] = summarize(pts).Median

	cfgs := make([]pipeline.Config, 0, len(j.specs))
	for _, sp := range j.specs {
		cfgs = append(cfgs, sp.Config)
	}
	probeSessionSetup(tr, cfgs, m)
	return nil
}
