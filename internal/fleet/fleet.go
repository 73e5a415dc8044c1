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
// sessions x frames full records. Workers claim session indices one at
// a time from a shared counter, so a worker that drew cheap sessions
// takes more of them and none idles behind another's costly run; the
// results are owned by position, never by worker. Each worker keeps
// one warm pipeline.Session from the shared pool, one reusable sink
// and its own sample buffers, following the partition-over-share
// guidance that scales this to 100k-session scenarios. The population
// is either a spec slice (Config.Specs) or a per-index generator
// (Config.Source) that each worker mints its claimed specs from; both
// run the same worker loop.
// A Source run keeps only its roll-up unless Config.Each takes the
// per-session results, which is what carries a timeline to a million
// sessions. A session is identified by a SessionID, its tier and index,
// which minting, admission, placement and the workers carry without
// building a string; the "<tier>-%03d" name is rendered only where it
// is printed (reports, traces, migration lines), so a session costs no
// allocation on its way through the pool.
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
	"sync/atomic"
	"time"

	"qvr/internal/framesink"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
)

// SessionSpec identifies one client session and holds its simulator
// configuration.
type SessionSpec struct {
	ID SessionID
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
	// generator: each worker mints the specs it claims as it runs them,
	// so the population never exists in memory as a slice. The run and
	// its results are the same as a Specs run. Admission, Placer and
	// CellCapacity decide over the whole population by index: they
	// mint what they need to read (IDs, regions, network conditions)
	// up front and keep only the per-index decision, which each worker
	// applies to the spec it mints. Only Result.Dropped, the
	// refused tail, is ever held as specs.
	Source *SpecSource
	// Each, when set, receives admitted session i's result (i in
	// Result.Sessions order) from the worker that ran it, concurrently
	// across indices. Without it a Specs run fills Result.Sessions and
	// a Source run keeps no per-session results.
	Each func(i int, sr SessionResult)
}

// SpecSource is a population as a pure per-index spec generator in
// place of a materialized spec slice: each worker mints the specs it
// claims transiently, so a million-session fleet never exists in memory
// as specs.
type SpecSource struct {
	// N is the population size.
	N int
	// MeasuredFrames is the per-session measured frame count: a worker
	// sizes its sample buffers by it, and starts a new buffer when the
	// current one has less room than this left.
	MeasuredFrames int
	// At mints the spec with index i. It must be a pure function of i
	// (the scenario layer builds it from Mix.Minter plus the phase
	// view) and safe for concurrent calls from the worker pool.
	At func(i int) SessionSpec
}

// sliceSource serves a materialized spec slice through the SpecSource
// seam. MeasuredFrames is the slice's largest, so every session fits
// the room a worker reserves for it.
func sliceSource(specs []SessionSpec) *SpecSource {
	src := &SpecSource{N: len(specs), At: func(i int) SessionSpec { return specs[i] }}
	for _, sp := range specs {
		src.MeasuredFrames = max(src.MeasuredFrames, sp.Config.MeasuredFrames())
	}
	return src
}

// SessionResult is one completed session: its ID, the config it
// actually ran (reflecting the admission layer's adjustments — shared
// cluster, queue delay, scaled bandwidth — on top of the requested
// spec's) and the compact streamed metrics. Full per-frame records are
// never retained; a consumer that needs them runs Config through
// pipeline directly with a framesink.RecordSink.
type SessionResult struct {
	ID     SessionID
	Config pipeline.Config
	Stats  framesink.Summary
}

// Result is a completed fleet run.
type Result struct {
	// Sessions holds the admitted sessions in spec order. Only a Specs
	// run without a Config.Each sink fills it.
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
// every session whether or not anything receives its SessionResult.
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
		// The workers run the admitted indices [0, n) and bind each
		// spec as they mint it.
		n, bind, d, c := admit(cfg, src)
		dropped, contention = d, c
		mint := src.At
		src = &SpecSource{N: n, MeasuredFrames: src.MeasuredFrames, At: mint}
		if bind != nil {
			src.At = func(i int) SessionSpec { return bind(i, mint(i)) }
		}
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
	if cfg.Each == nil && cfg.Source == nil {
		results = make([]SessionResult, n)
		cfg.Each = func(i int, sr SessionResult) { results[i] = sr }
	}
	tallies := make([]tally, n)
	samples := make([]sampleBufs, workers)
	frames := make([]int64, workers)
	// Workers claim the next session index from one counter until the
	// population runs out. Everything kept is indexed by spec position,
	// counters are summed and traces sorted, so which worker ran a
	// session (like the pool size) can never leak into the science.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers && n > 0; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samples[w], frames[w] = runWorker(cfg, src, fid, traceRun, workers, &next, tallies)
		}(w)
	}
	wg.Wait()

	bufs := make([][]float64, 0, workers)
	for w := range samples {
		bufs = append(append(bufs, samples[w].full...), samples[w].cur)
	}
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

// sampleBufs is one worker's exact-percentile sample storage. Each
// session appends its samples to cur; when the next session might not
// fit, cur is retired to full and a fresh buffer started. A buffer is
// never regrown by copying, so every Summary.MTPSorted keeps aliasing
// the region its session wrote, and rollUp merges the whole list.
type sampleBufs struct {
	cur  []float64
	full [][]float64
}

// reserve makes room in cur for one session of frames samples,
// starting a buffer of frames samples for each of sessions sessions
// when cur has less room left.
func (b *sampleBufs) reserve(frames, sessions int) {
	if cap(b.cur)-len(b.cur) >= frames {
		return
	}
	if len(b.cur) > 0 {
		b.full = append(b.full, b.cur)
	}
	b.cur = make([]float64, 0, frames*sessions)
}

// evenShare is one worker's share of the remaining work when left
// items are still unclaimed: their even split over the pool, rounded
// up. A worker sizes each new sample buffer with it, so its first
// buffer holds its fair share of the run and a worker that outgrows
// it sizes the next for the rest.
func evenShare(left, workers int) int { return (left + workers - 1) / workers }

// runWorker is one pool worker: it claims session indices from next
// until the population is exhausted and simulates each with
// worker-local state — one pipeline.Session borrowed from the shared
// warm pool and reset for every exact run, one reusable StatsSink, and
// sample buffers sized by evenShare, so a session costs almost no
// garbage once the pools are warm. When counters are on, the worker
// also owns one registry shard and one StageSink reused across its
// claims — the per-frame path stays allocation-free either way. It
// writes tallies (and calls cfg.Each) at each session's index and
// returns its sample buffers plus its exact-DES frame count.
func runWorker(cfg Config, src *SpecSource, fid *fidelityState, traceRun, workers int, next *atomic.Int64, tallies []tally) (sampleBufs, int64) {
	var samples, preds sampleBufs
	sess := pipeline.GetSession()
	defer pipeline.PutSession(sess)
	var sink framesink.StatsSink
	var stage obs.StageSink
	if cfg.Obs != nil {
		stage = obs.StageSink{Shard: cfg.Obs.NewShard(), Next: &sink}
	}
	var exactFrames int64
	for {
		i := int(next.Add(1)) - 1
		if i >= src.N {
			return samples, exactFrames
		}
		sp := src.At(i)
		ran := sp.Config
		samples.reserve(src.MeasuredFrames, evenShare(src.N-i, workers))
		var sum framesink.Summary
		if fid != nil && !fid.marks[i] {
			// Analytic fast path: the prediction is a pure per-session
			// function, so its place in the results matches any worker
			// count. It bypasses the stage sink — CSessionsSimulated and
			// CFramesMeasured stay exact-DES books.
			sum, samples.cur = fid.runner.RunSession(sp.Config, samples.cur)
			if cfg.Obs != nil {
				stage.Shard.Inc(obs.CSessionsSurrogate)
			}
		} else {
			sink.Reset(samples.cur)
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
				st = cfg.Tracer.Session(traceRun, i, sp.ID.String(), sp.Config, dst)
				dst = st
			}
			sess.Reset(sp.Config)
			ran = sess.RunSink(dst).Config
			if st != nil {
				cfg.Tracer.Collect(st)
			}
			sum = sink.Summary()
			samples.cur = sink.Buffer()
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
				preds.reserve(src.MeasuredFrames, evenShare(len(fid.pred)-r, workers))
				fid.pred[r], preds.cur = fid.runner.RunSession(sp.Config, preds.cur)
			}
		}
		tallies[i] = tally{fps: sum.FPS, bytes: sum.AvgBytesSent}
		if cfg.Each != nil {
			cfg.Each(i, SessionResult{ID: sp.ID, Config: ran, Stats: sum})
		}
	}
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
