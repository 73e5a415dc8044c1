// Package fleet scales the single-session simulator in
// internal/pipeline to a concurrent multi-session engine: N
// heterogeneous client sessions (different apps, device tiers,
// networks, motion profiles and seeds) run across a bounded worker
// pool, contending for one shared remote render cluster through a
// simple admission/queueing layer.
//
// The paper evaluates one client against one remote server; a
// production deployment serves many clients from a pool of render
// GPUs behind shared access networks. The fleet engine models that
// with three pieces on top of the existing substrates:
//
//   - Admission: the shared cluster sustains a bounded number of
//     concurrent sessions at full speed (gpu.RemoteCluster.Share);
//     load beyond capacity splits per-GPU throughput and adds a
//     queueing delay (pipeline.Config.RemoteQueueSeconds) to every
//     remote request; load beyond the queue limit is dropped.
//   - Cell sharing: sessions on the same network condition split the
//     access medium once a cell's capacity is exceeded
//     (netsim.Condition.Scaled).
//   - Aggregation: per-session framesink.Summary values roll up into
//     fleet-level tail latency (p50/p95/p99 MTP), aggregate FPS and
//     downlink bytes/s, and the dropped-session count.
//
// The engine streams: each session emits its measured frames into a
// worker-local framesink.StatsSink instead of materializing a
// []FrameRecord, so fleet memory is O(sessions) summaries plus one
// float64 per frame (the exact-percentile samples) rather than
// sessions x frames full records. The worker pool is sharded — each
// worker owns a contiguous index range of the population and one
// reusable sink plus one pre-sized sample buffer for its whole shard —
// following the partition-over-share guidance that scales this to
// 100k-session scenarios. The population is either a spec slice
// (Config.Specs) or a per-index generator (Config.Source) that each
// worker mints its own shard from; both run the same shard loop.
// Retention is its own choice: a Config.Lean run keeps only the
// roll-up, which is what carries a timeline to a million sessions.
//
// Each session remains a fully deterministic single-threaded
// simulation; concurrency lives only between sessions, and every
// number is a pure function of the spec list, so a fleet result is
// identical for any worker count and any goroutine schedule.
package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"qvr/internal/framesink"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
)

// SessionSpec names one client session and its simulator
// configuration.
type SessionSpec struct {
	Name string
	// Region is the user's geographic home ("" = unspecified). The
	// edge grid's nearest-RTT scoring resolves per-cluster RTT against
	// it; everything else ignores it.
	Region string
	Config pipeline.Config
}

// Config describes one fleet run.
type Config struct {
	// Specs are the requested sessions, in arrival order. When the
	// admission layer has to drop, it drops from the tail.
	Specs []SessionSpec
	// Workers bounds the simulation worker pool; 0 means GOMAXPROCS.
	// Workers only affects wall-clock speed, never results.
	Workers int
	// Admission models the shared remote render cluster. A zero value
	// (Cluster.GPUs == 0) disables admission: every session keeps its
	// own per-spec remote cluster, and nothing is dropped.
	Admission Admission
	// Placer, when set, replaces the single shared cluster with a
	// geo-distributed render grid (internal/edge implements it): each
	// session is bound to one of several edge clusters, and Admission
	// is ignored. Nothing is ever dropped in grid mode — sessions the
	// grid cannot place fail over to local-only rendering.
	Placer Placer
	// CellCapacity is the number of sessions one network cell (one
	// condition name) carries before the sessions start splitting its
	// bandwidth. 0 means uncontended access networks.
	CellCapacity int
	// Obs, when set, receives event counters and stage-timing
	// histograms: each worker writes a private registry shard, merged
	// on Snapshot, so enabling counters never perturbs results or the
	// worker-count determinism contract. Nil disables all counting at
	// zero cost.
	Obs *obs.Registry
	// Tracer, when set, records per-stage span traces for a sampled
	// subset of sessions (the first Tracer-configured N of each run,
	// by spec index — deterministic for any worker pool). TraceLabel
	// names this run in the trace (scenario phase, capacity point...).
	Tracer     *obs.Tracer
	TraceLabel string
	// Fidelity, when set, turns the run mixed-fidelity: sessions
	// execute through the analytic fast path except for a deterministic
	// stratified sample cross-checked against the exact DES. The
	// comparison lands in Result.Fidelity.
	Fidelity *Fidelity
	// Source, when set, replaces Specs with a pure per-index spec
	// generator: each worker mints its shard's specs as it runs them,
	// so the population never exists in memory as a slice. The run and
	// its results are the same as a Specs run. Admission, Placer and
	// CellCapacity decide over the whole population, so with any of
	// them on the source is materialized first.
	Source *SpecSource
	// Lean keeps no per-session results: Result.Sessions stays empty
	// and the run keeps only the roll-up, so a million-session
	// timeline fits a CI memory budget. The science is the same either
	// way.
	Lean bool
}

// SpecSource is a population as a pure per-index spec generator in
// place of a materialized spec slice: each worker mints its shard's
// specs transiently, so a million-session fleet never exists in memory
// as specs.
type SpecSource struct {
	// N is the population size.
	N int
	// MeasuredFrames is the per-session measured frame count, used to
	// pre-size the per-shard sample buffers.
	MeasuredFrames int
	// At mints the spec with index i. It must be a pure function of i
	// (the scenario layer builds it from Mix.Minter plus the phase
	// view) and safe for concurrent calls from the worker pool.
	At func(i int) SessionSpec
}

// sliceSource serves a materialized spec slice through the SpecSource
// seam. MeasuredFrames is the slice's largest, so a shard buffer never
// has to regrow.
func sliceSource(specs []SessionSpec) *SpecSource {
	src := &SpecSource{N: len(specs), At: func(i int) SessionSpec { return specs[i] }}
	for _, sp := range specs {
		src.MeasuredFrames = max(src.MeasuredFrames, sp.Config.MeasuredFrames())
	}
	return src
}

// materialize mints every index of the source into a fresh slice.
func (src *SpecSource) materialize() []SessionSpec {
	specs := make([]SessionSpec, src.N)
	for i := range specs {
		specs[i] = src.At(i)
	}
	return specs
}

// SessionResult is one completed session: its name, the config it
// actually ran (reflecting the admission layer's adjustments — shared
// cluster, queue delay, scaled bandwidth — on top of the requested
// spec's) and the compact streamed metrics. Full per-frame records are
// never retained; a consumer that needs them runs Config through
// pipeline directly with a framesink.RecordSink.
type SessionResult struct {
	Name   string
	Config pipeline.Config
	Stats  framesink.Summary
}

// Result is a completed fleet run.
type Result struct {
	// Sessions holds the admitted sessions in spec order. It stays
	// empty in a Config.Lean run.
	Sessions []SessionResult
	// Dropped lists the sessions the admission layer rejected.
	Dropped []SessionSpec
	// Workers is the pool size actually used.
	Workers int
	// Contention reports the admission layer's load computation.
	Contention Contention
	// WallSeconds is the host wall-clock time the run took. It is the
	// only non-deterministic field.
	WallSeconds float64
	// Fidelity carries the mixed-fidelity cross-check report (nil in
	// pure-exact runs).
	Fidelity *FidelityReport
	// summary is the population roll-up Run computes once (see rollUp);
	// Summarize adds the run shape and contention fields to it.
	summary Summary
	// exactFrames is the measured frames of the exact-DES sessions.
	exactFrames int64
}

// tally is the part of a session's result the roll-up needs, kept for
// every session whether or not its SessionResult is.
type tally struct{ fps, bytes float64 }

// Run simulates every admitted session across the worker pool and
// aggregates the results. The outcome is deterministic for a fixed
// population regardless of Workers.
func Run(cfg Config) Result {
	start := time.Now() //qvr:wallclock feeds WallSeconds, the result's one declared non-deterministic field
	var ctl *obs.Shard
	if cfg.Obs != nil {
		ctl = cfg.Obs.Ctl()
	}

	src := cfg.Source
	if src == nil {
		src = sliceSource(cfg.Specs)
	}
	var dropped []SessionSpec
	var contention Contention
	if cfg.Placer != nil || cfg.Admission.Enabled || cfg.Admission.Cluster.GPUs > 0 || cfg.CellCapacity > 0 {
		var admitted []SessionSpec
		admitted, dropped, contention = admit(cfg, src.materialize())
		src = sliceSource(admitted)
	}
	n := src.N
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n && n > 0 {
		workers = n
	}

	traceRun := -1
	if cfg.Tracer != nil {
		traceRun = cfg.Tracer.BeginRun(cfg.TraceLabel)
	}

	// Mixed fidelity: classify, calibrate and mark the stratified
	// exact sample before the pool starts, single-threaded and in spec
	// order — the fidelity split can never depend on the worker count.
	// The class keys see the post-admission configs, so the surrogate
	// models the same contention the exact simulator pays.
	var fid *fidelityState
	if cfg.Fidelity != nil && cfg.Fidelity.Runner != nil && n > 0 {
		fid = newFidelityState(cfg.Fidelity, n,
			func(i int) pipeline.Config { return src.At(i).Config }, ctl)
	}

	var results []SessionResult
	if !cfg.Lean {
		results = make([]SessionResult, n)
	}
	tallies := make([]tally, n)
	bufs := make([][]float64, workers)
	frames := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Contiguous shards: worker w owns indices [lo, hi). Everything
		// kept is indexed by spec position, so the partitioning (like
		// the pool size) can never leak into the science.
		lo, hi := n*w/workers, n*(w+1)/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			bufs[w], frames[w] = runShard(cfg, src, fid, traceRun, lo, hi, results, tallies)
		}(w, lo, hi)
	}
	wg.Wait()

	res := Result{
		Sessions:   results,
		Dropped:    dropped,
		Workers:    workers,
		Contention: contention,
		summary:    rollUp(tallies, bufs, len(dropped)),
	}
	for _, f := range frames {
		res.exactFrames += f
	}
	res.WallSeconds = time.Since(start).Seconds() //qvr:wallclock WallSeconds is the result's one declared non-deterministic field
	if fid != nil {
		res.Fidelity = fid.report(ctl)
	}
	return res
}

// runShard simulates indices [lo, hi) with worker-local state: one
// pipeline.Session reset for every exact run, one reusable StatsSink
// and one sample buffer pre-sized for the shard's measured frames, so
// an entire shard's exact-percentile samples live in a single
// allocation and a session costs almost no garbage once the first has
// warmed the simulator's pools. When counters are on, the worker also
// owns one registry shard and one StageSink reused across its whole
// range — the per-frame path stays allocation-free either way. It
// writes tallies (and results, when kept) at each session's index and
// returns the shard's sample buffer plus its exact-DES frame count.
func runShard(cfg Config, src *SpecSource, fid *fidelityState, traceRun, lo, hi int, results []SessionResult, tallies []tally) ([]float64, int64) {
	buf := make([]float64, 0, (hi-lo)*src.MeasuredFrames)
	var predBuf []float64
	if fid != nil {
		marked := 0
		for i := lo; i < hi; i++ {
			if fid.marks[i] {
				marked++
			}
		}
		if marked > 0 {
			predBuf = make([]float64, 0, marked*src.MeasuredFrames)
		}
	}
	var sess pipeline.Session
	var sink framesink.StatsSink
	var stage obs.StageSink
	if cfg.Obs != nil {
		stage = obs.StageSink{Shard: cfg.Obs.NewShard(), Next: &sink}
	}
	var exactFrames int64
	for i := lo; i < hi; i++ {
		sp := src.At(i)
		ran := sp.Config
		var sum framesink.Summary
		if fid != nil && !fid.marks[i] {
			// Analytic fast path: the prediction is a pure per-session
			// function, so its place in the results (and its samples'
			// region of the shard buffer) match any worker count. It
			// bypasses the stage sink — CSessionsSimulated and
			// CFramesMeasured stay exact-DES books.
			sum, buf = fid.runner.RunSession(sp.Config, buf)
			if cfg.Obs != nil {
				stage.Shard.Inc(obs.CSessionsSurrogate)
			}
		} else {
			sink.Reset(buf)
			// The sink chain, innermost first: StatsSink always
			// terminates; StageSink taps stage timings when counters are
			// on; a SessionTrace records spans when this session is
			// sampled.
			var dst pipeline.FrameSink = &sink
			if cfg.Obs != nil {
				stage.Shard.Inc(obs.CSessionsSimulated)
				dst = &stage
			}
			var st *obs.SessionTrace
			if cfg.Tracer != nil && cfg.Tracer.Wants(i) {
				st = cfg.Tracer.Session(traceRun, i, sp.Name, sp.Config, dst)
				dst = st
			}
			sess.Reset(sp.Config)
			ran = sess.RunSink(dst).Config
			if st != nil {
				cfg.Tracer.Collect(st)
			}
			sum = sink.Summary()
			buf = sink.Buffer()
			exactFrames += int64(sum.Frames)
			if fid != nil {
				// The cross-check pair: this session ran exact above; the
				// surrogate now predicts the same config, and the report
				// compares the two books after the pool quiesces. Workers
				// write disjoint rank rows, indexed by spec position.
				if cfg.Obs != nil {
					stage.Shard.Inc(obs.CFidelityExact)
				}
				r := fid.rank[i]
				fid.exact[r] = sum
				fid.pred[r], predBuf = fid.runner.RunSession(sp.Config, predBuf)
			}
		}
		tallies[i] = tally{fps: sum.FPS, bytes: sum.AvgBytesSent}
		if results != nil {
			results[i] = SessionResult{Name: sp.Name, Config: ran, Stats: sum}
		}
	}
	return buf, exactFrames
}

// TotalMeasuredFrames is the run's CFramesMeasured book: the measured
// frames that streamed through the stage sinks, which are the exact-DES
// sessions' (surrogate sessions bypass the sinks).
func (r Result) TotalMeasuredFrames() int64 { return r.exactFrames }

// String implements fmt.Stringer with a one-line fleet summary.
func (r Result) String() string {
	s := r.Summarize()
	return fmt.Sprintf(
		"fleet: %d sessions (%d dropped) on %d workers: p50/p95/p99 MTP %.1f/%.1f/%.1f ms, agg %.0f fps, %.1f MB/s",
		s.Sessions, s.Dropped, s.Workers,
		s.P50MTPMs, s.P95MTPMs, s.P99MTPMs, s.AggregateFPS, s.AggregateMBps)
}
