// Package capacity is the HPL of this repository: where HPL asks "how
// many FLOPS does this machine sustain?", the capacity probe asks "how
// many Q-VR sessions does this grid (or shared cluster) sustain while
// meeting the declared SLO?"
//
// The probe binary-searches the largest admissible session count in a
// configured bounds window against the scenario's [slo] section — each
// probe point is one steady-state fleet window (scenario.RunPoint) —
// then sweeps a session grid around the found knee to emit the knee
// curve: sessions versus P99 motion-to-photon, 90-FPS share, drops,
// failovers and GPU-seconds. Paired with it is a MILC-style weak/
// strong scaling study over the fleet's worker pool: weak scaling
// holds sessions-per-worker fixed while workers grow, strong scaling
// holds the total fixed, and both report wall-clock and throughput per
// point so flattening worker scaling is visible PR over PR.
//
// Determinism contract: every probe point is a pure function of
// (scenario, session count) — the knee search, knee curve and scaling
// row *metrics* are byte-identical across Config.Workers. Wall-clock
// fields (WallSeconds, SessionsPerSec, Speedup, Efficiency) are the
// deliberate exception — they are the scaling study's measurement —
// and CI's determinism diff excludes exactly those fields, the same
// way qvr-fleet excludes wall/workers from its reports.
//
// Every run can be re-described by an HPL.dat-style parameter file
// (WriteParams -> capacity.params) recording the topology, SLO, search
// bounds, seed and grids, so a result archived from CI is reproducible
// byte-for-byte from its params alone.
package capacity

import (
	"fmt"
	"math"

	"qvr/internal/fleet"
	"qvr/internal/obs"
	"qvr/internal/obs/series"
	"qvr/internal/scenario"
)

// Defaults for Config's zero-valued tunables.
const (
	// DefaultGridPoints is the knee-curve sweep size.
	DefaultGridPoints = 9
	// DefaultGridSpan sweeps the knee curve from 50% to 150% of the
	// knee.
	DefaultGridSpan = 0.5
	// DefaultWindowSeconds prices each probe point's GPU-seconds: the
	// nominal steady-state window one point represents.
	DefaultWindowSeconds = 60
	// DefaultSessionsPerWorker is the weak-scaling load per worker.
	DefaultSessionsPerWorker = 8
	// defaultMaxCapacityFactor sizes the default search ceiling: four
	// times the full-speed session capacity is past the admission
	// layer's drop threshold (2x), so an SLO that is meetable at all
	// has its knee strictly inside the default bounds.
	defaultMaxCapacityFactor = 4
)

// Config describes one capacity probe.
type Config struct {
	// Scenario supplies the probed infrastructure: mix, design, seed,
	// grid topology or shared cluster, cell capacity, and the [slo]
	// targets the search runs against (required).
	Scenario scenario.Scenario
	// MinSessions/MaxSessions bound the knee search. Min <= 0 defaults
	// to 1; Max <= 0 defaults to defaultMaxCapacityFactor times the
	// scenario's full-speed session capacity (an error when the
	// scenario has no remote capacity to derive it from).
	MinSessions int
	MaxSessions int
	// GridPoints/GridSpan shape the knee-curve sweep: GridPoints
	// session counts spread over [knee*(1-span), knee*(1+span)].
	GridPoints int
	GridSpan   float64
	// WindowSeconds is the steady-state window one probe point
	// represents, used to price GPU-seconds per point.
	WindowSeconds float64
	// Workers is the fleet pool size for search and knee-curve points
	// (0 = all cores; never affects their metrics).
	Workers int
	// FramesOverride/WarmupOverride trim each point's per-session frame
	// budget, exactly as scenario.Options does.
	FramesOverride int
	WarmupOverride *int
	// ScaleWorkers lists the worker counts of the weak/strong scaling
	// study, in run order; empty skips the study.
	ScaleWorkers []int
	// SessionsPerWorker is the weak-scaling load: point w runs
	// w*SessionsPerWorker sessions on w workers. Default 8.
	SessionsPerWorker int
	// StrongSessions is the strong-scaling total; 0 uses the knee the
	// search found (or the search floor when there is none).
	StrongSessions int
	// Observer, when set, receives one Event per probe step as it
	// happens — the hook the NDJSON event stream (BENCH_capacity.json)
	// hangs off. Nil means no events.
	Observer func(Event)
	// Obs, when set, receives decision counters from every layer the
	// probe drives (plus the probe's own evaluation counter); Tracer
	// records span traces for a sampled subset of sessions per point.
	// Neither affects the probe's metrics.
	Obs    *obs.Registry
	Tracer *obs.Tracer
	// Series, when set, closes one flight-recorder window per fleet
	// actually run — cache-miss probe points and scaling measurements
	// alike — on a synthetic clock of WindowSeconds per run (a probe
	// has no scenario timeline; each point *represents* one
	// steady-state window). Series must record the same registry as
	// Obs. Does not affect the probe's metrics.
	Series *series.Recorder
}

// Outcome classifies what the knee search found.
type Outcome string

const (
	// OutcomeKnee: the knee is strictly inside the search bounds — the
	// largest n in [min, max) meeting the SLO, with n+delta violating it.
	OutcomeKnee Outcome = "knee"
	// OutcomeBelowMin: the SLO is violated already at MinSessions; the
	// reported capacity is 0 (this infrastructure cannot meet the SLO
	// for even the search floor).
	OutcomeBelowMin Outcome = "slo-unmet-at-min"
	// OutcomeAtMax: the SLO still holds at MaxSessions — the search hit
	// its bound, not the knee. Raise MaxSessions to find the real one.
	OutcomeAtMax Outcome = "slo-met-at-max"
)

// Point is one probed session count: the deterministic slice of a
// single-point run, as it appears in the search trace and knee curve.
type Point struct {
	Sessions     int     `json:"sessions"`
	Met          bool    `json:"met"`
	P99MTPMs     float64 `json:"p99_mtp_ms"`
	TargetShare  float64 `json:"target_share"`
	Dropped      int     `json:"dropped"`
	FailedOver   int     `json:"failed_over"`
	AggregateFPS float64 `json:"aggregate_fps"`
	QueueMs      float64 `json:"queue_ms"`
	// GPUSeconds prices the provisioned capacity over one
	// WindowSeconds steady-state window.
	GPUSeconds float64 `json:"gpu_seconds"`
}

// ScalingPoint is one weak- or strong-scaling measurement. The metric
// fields are deterministic; WallSeconds and everything derived from it
// are host measurements, excluded from CI's determinism diff.
type ScalingPoint struct {
	Mode     string  `json:"mode"` // "weak" or "strong"
	Workers  int     `json:"workers"`
	Sessions int     `json:"sessions"`
	Met      bool    `json:"met"`
	P99MTPMs float64 `json:"p99_mtp_ms"`
	// WallSeconds is the host wall-clock for the point's fleet run.
	WallSeconds float64 `json:"wall_seconds"`
	// SessionsPerSec is Sessions/WallSeconds — the throughput axis.
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// Speedup is this point's throughput over the first point's;
	// Efficiency is Speedup normalized by the worker ratio (1.0 =
	// perfect scaling, for weak and strong alike).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// Params echoes the resolved probe parameters into the report (and the
// capacity.params file), so a result names the exact search that
// produced it.
type Params struct {
	MinSessions       int     `json:"min_sessions"`
	MaxSessions       int     `json:"max_sessions"`
	GridPoints        int     `json:"grid_points"`
	GridSpan          float64 `json:"grid_span"`
	WindowSeconds     float64 `json:"window_s"`
	Frames            int     `json:"frames"`
	Warmup            int     `json:"warmup"`
	ScaleWorkers      []int   `json:"scale_workers,omitempty"`
	SessionsPerWorker int     `json:"sessions_per_worker,omitempty"`
	StrongSessions    int     `json:"strong_sessions,omitempty"`
	// ExactFraction/Calibration echo the scenario's [fidelity]
	// declaration when the probe rode the calibrated fast path
	// (omitted for exact-only probes).
	ExactFraction float64 `json:"exact_fraction,omitempty"`
	Calibration   int     `json:"calibration,omitempty"`
}

// Report is a completed capacity probe.
type Report struct {
	Scenario string    `json:"scenario"`
	Mix      string    `json:"mix"`
	Design   string    `json:"design"`
	Seed     int64     `json:"seed"`
	SLO      fleet.SLO `json:"slo"`
	Params   Params    `json:"params"`
	// Outcome classifies the search; KneeSessions is the capacity: the
	// largest probed session count meeting the SLO (0 when the SLO is
	// unmeetable at the search floor; MaxSessions when the search hit
	// its ceiling — a bound, not a knee).
	Outcome      Outcome `json:"outcome"`
	KneeSessions int     `json:"knee_sessions"`
	// Search is the binary-search trace in evaluation order; Knee is
	// the knee curve in ascending session order.
	Search []Point `json:"search"`
	Knee   []Point `json:"knee_curve"`
	// KneeExact is the exact-DES confirmation of the knee: when the
	// search and sweep rode the scenario's [fidelity] fast path, the
	// found knee is re-run once with the surrogate off, so the
	// reported capacity rests on the exact simulation, not on the
	// model that was only sampled against it. Nil for exact probes.
	KneeExact *Point `json:"knee_exact,omitempty"`
	// Scaling is the weak/strong study in run order (empty when
	// ScaleWorkers is).
	Scaling []ScalingPoint `json:"scaling,omitempty"`
}

// Event is one probe step, streamed to Config.Observer as it happens —
// the NDJSON record of BENCH_capacity.json, in the spirit of
// `go test -json`. Unlike the deterministic report, events carry
// wall-clock (they are the archive, and archives may keep timing).
type Event struct {
	Event string `json:"event"` // "params", "point", "knee", "scaling", "result"
	// Stage tags point events: "search" or "knee".
	Stage string `json:"stage,omitempty"`
	// Point carries the probed point for "point" events.
	Point *Point `json:"point,omitempty"`
	// Scaling carries the measurement for "scaling" events.
	Scaling *ScalingPoint `json:"scaling,omitempty"`
	// Outcome/KneeSessions accompany "knee" and "result" events.
	Outcome      Outcome `json:"outcome,omitempty"`
	KneeSessions int     `json:"knee_sessions,omitempty"`
	// Scenario/Params accompany the opening "params" event.
	Scenario string     `json:"scenario,omitempty"`
	SLO      *fleet.SLO `json:"slo,omitempty"`
	Params   *Params    `json:"params,omitempty"`
	// WallSeconds is the host time the step took (point and scaling
	// events).
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// withDefaults resolves the zero tunables against the scenario.
func (c Config) withDefaults() (Config, error) {
	if c.MinSessions <= 0 {
		c.MinSessions = 1
	}
	if c.MaxSessions <= 0 {
		cap := fullSpeedCapacity(c.Scenario)
		if cap <= 0 {
			return c, fmt.Errorf("capacity: scenario %q has no remote capacity to derive max-sessions from; set MaxSessions explicitly", c.Scenario.Name)
		}
		c.MaxSessions = defaultMaxCapacityFactor * cap
	}
	if c.MaxSessions < c.MinSessions {
		return c, fmt.Errorf("capacity: max-sessions %d below min-sessions %d", c.MaxSessions, c.MinSessions)
	}
	if c.GridPoints <= 0 {
		c.GridPoints = DefaultGridPoints
	}
	if c.GridSpan <= 0 {
		c.GridSpan = DefaultGridSpan
	}
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = DefaultWindowSeconds
	}
	if c.SessionsPerWorker <= 0 {
		c.SessionsPerWorker = DefaultSessionsPerWorker
	}
	for _, w := range c.ScaleWorkers {
		if w <= 0 {
			return c, fmt.Errorf("capacity: scaling worker count %d must be positive", w)
		}
	}
	if c.StrongSessions < 0 {
		return c, fmt.Errorf("capacity: strong-sessions %d must not be negative", c.StrongSessions)
	}
	return c, nil
}

// fullSpeedCapacity is the scenario's total full-speed session
// capacity: the sizing basis for the default search ceiling.
func fullSpeedCapacity(sc scenario.Scenario) int {
	perGPU := sc.SessionsPerGPU
	if perGPU <= 0 {
		perGPU = fleet.DefaultSessionsPerGPU
	}
	if len(sc.Topology.Clusters) > 0 {
		total := 0
		for _, c := range sc.Topology.Clusters {
			p := c.SessionsPerGPU
			if p <= 0 {
				p = fleet.DefaultSessionsPerGPU
			}
			total += c.GPUs * p
		}
		return total
	}
	if sc.GPUs > 0 {
		return sc.GPUs * perGPU
	}
	return 0
}

// FindKnee binary-searches [lo, hi] for the largest session count
// meeting the SLO, via the supplied evaluator. It assumes the SLO is
// *broadly* monotone in load but does not require it pointwise: each
// candidate is evaluated exactly once and the interval strictly
// shrinks, so the search terminates in O(log(hi-lo)) evaluations and
// returns the same knee for the same evaluator no matter how noisy
// the metric is near the boundary. The returned knee always satisfies
// met(knee) (except for OutcomeBelowMin, where the capacity is 0).
func FindKnee(lo, hi int, met func(sessions int) (bool, error)) (int, Outcome, error) {
	if lo < 1 || hi < lo {
		return 0, "", fmt.Errorf("capacity: search bounds [%d, %d] invalid", lo, hi)
	}
	ok, err := met(lo)
	if err != nil {
		return 0, "", err
	}
	if !ok {
		return 0, OutcomeBelowMin, nil
	}
	if lo == hi {
		return hi, OutcomeAtMax, nil
	}
	ok, err = met(hi)
	if err != nil {
		return 0, "", err
	}
	if ok {
		return hi, OutcomeAtMax, nil
	}
	// Invariant: met(lo), !met(hi). Bisect to adjacency.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := met(mid)
		if err != nil {
			return 0, "", err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, OutcomeKnee, nil
}

// Probe runs the full capacity study: knee search, knee-curve sweep,
// and (when configured) the weak/strong scaling study.
func Probe(cfg Config) (Report, error) {
	sc := cfg.Scenario
	if err := sc.Validate(); err != nil {
		return Report{}, err
	}
	if sc.SLO == nil || !sc.SLO.Enabled() {
		return Report{}, fmt.Errorf("capacity: scenario %q declares no [slo] targets to probe against", sc.Name)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Report{}, err
	}

	frames, warmup := sc.Frames, sc.Warmup
	if cfg.FramesOverride > 0 {
		frames = cfg.FramesOverride
	}
	if cfg.WarmupOverride != nil && *cfg.WarmupOverride >= 0 {
		warmup = *cfg.WarmupOverride
	}
	rep := Report{
		Scenario: sc.Name,
		Mix:      sc.Mix,
		Design:   sc.Design.String(),
		Seed:     sc.Seed,
		SLO:      *sc.SLO,
		Params: Params{
			MinSessions:       cfg.MinSessions,
			MaxSessions:       cfg.MaxSessions,
			GridPoints:        cfg.GridPoints,
			GridSpan:          cfg.GridSpan,
			WindowSeconds:     cfg.WindowSeconds,
			Frames:            frames,
			Warmup:            warmup,
			ScaleWorkers:      cfg.ScaleWorkers,
			SessionsPerWorker: cfg.SessionsPerWorker,
			StrongSessions:    cfg.StrongSessions,
		},
		Search: []Point{},
		Knee:   []Point{},
	}
	if f := sc.Fidelity; f != nil {
		rep.Params.ExactFraction = f.ExactFraction
		rep.Params.Calibration = f.Calibration
	}
	emit := func(e Event) {
		if cfg.Observer != nil {
			cfg.Observer(e)
		}
	}
	emit(Event{Event: "params", Scenario: sc.Name, SLO: sc.SLO, Params: &rep.Params})

	// Every probe point is deterministic in its session count, so
	// points are cached: the knee sweep reuses search evaluations.
	opt := scenario.Options{
		Workers: cfg.Workers, FramesOverride: cfg.FramesOverride, WarmupOverride: cfg.WarmupOverride,
		Obs: cfg.Obs, Tracer: cfg.Tracer,
	}
	var ctl *obs.Shard
	if cfg.Obs != nil {
		ctl = cfg.Obs.Ctl()
	}
	// The probe has no scenario clock; the series recorder gets a
	// synthetic one instead — each executed fleet (cache-miss point or
	// scaling measurement) occupies one WindowSeconds slot, in run
	// order. Every counter increment the probe causes lands in the
	// window of the run that caused it, so the window-sum audit stays
	// exact.
	var seriesT float64
	endWindow := func(label string, sum fleet.Summary, met bool) {
		if cfg.Series == nil {
			return
		}
		cfg.Series.EndWindow(series.Window{
			T0: seriesT, T1: seriesT + cfg.WindowSeconds, Label: label,
			Gauges: series.GaugesOf(sum, nil), SLOMet: &met,
		})
		seriesT += cfg.WindowSeconds
	}
	cache := map[int]Point{}
	eval := func(n int, stage string) (Point, error) {
		if pt, ok := cache[n]; ok {
			return pt, nil
		}
		// Counted at the cache-miss site: one probe evaluation is one
		// fleet actually run, which is what Refute checks against the
		// report's unique probed session counts.
		if ctl != nil {
			ctl.Inc(obs.CProbePoints)
		}
		pr, err := scenario.RunPoint(sc, n, opt)
		if err != nil {
			return Point{}, err
		}
		pt := pointOf(pr, cfg.WindowSeconds)
		cache[n] = pt
		endWindow(fmt.Sprintf("%s n=%d", stage, n), pr.Summary, pr.Verdict.Met)
		emit(Event{Event: "point", Stage: stage, Point: &pt, WallSeconds: pr.WallSeconds})
		return pt, nil
	}

	knee, outcome, err := FindKnee(cfg.MinSessions, cfg.MaxSessions, func(n int) (bool, error) {
		pt, err := eval(n, "search")
		if err != nil {
			return false, err
		}
		rep.Search = append(rep.Search, pt)
		return pt.Met, nil
	})
	if err != nil {
		return Report{}, err
	}
	rep.Outcome, rep.KneeSessions = outcome, knee
	emit(Event{Event: "knee", Outcome: outcome, KneeSessions: knee})

	// The knee curve: a session grid around the knee (around the search
	// floor when the SLO was unmeetable there, so the curve still shows
	// how far off the floor is).
	center := knee
	if center <= 0 {
		center = cfg.MinSessions
	}
	for _, n := range gridSessions(center, cfg.GridPoints, cfg.GridSpan) {
		pt, err := eval(n, "knee")
		if err != nil {
			return Report{}, err
		}
		rep.Knee = append(rep.Knee, pt)
	}

	// Refute-and-refine, the capacity edition: when the search and
	// sweep rode the [fidelity] fast path, confirm the knee itself
	// through the exact DES once, so the reported capacity never rests
	// on the surrogate alone. Deliberately outside the probe-point
	// cache and its CProbePoints counter — it is a confirmation, not a
	// probe evaluation.
	if sc.Fidelity != nil && knee > 0 {
		exactOpt := opt
		exactOpt.ExactOnly = true
		pr, err := scenario.RunPoint(sc, knee, exactOpt)
		if err != nil {
			return Report{}, err
		}
		pt := pointOf(pr, cfg.WindowSeconds)
		rep.KneeExact = &pt
		endWindow(fmt.Sprintf("knee-exact n=%d", knee), pr.Summary, pr.Verdict.Met)
		emit(Event{Event: "point", Stage: "knee-exact", Point: &pt, WallSeconds: pr.WallSeconds})
	}

	// The scaling study. Weak scaling: sessions-per-worker held fixed,
	// total grows with the pool. Strong scaling: total held fixed (the
	// knee by default), the pool grows under it.
	strong := cfg.StrongSessions
	if strong <= 0 {
		strong = center
	}
	for _, mode := range []string{"weak", "strong"} {
		var first *ScalingPoint
		for _, w := range cfg.ScaleWorkers {
			n := strong
			if mode == "weak" {
				n = w * cfg.SessionsPerWorker
			}
			pr, err := scenario.RunPoint(sc, n, scenario.Options{
				Workers: w, FramesOverride: cfg.FramesOverride, WarmupOverride: cfg.WarmupOverride,
				Obs: cfg.Obs, Tracer: cfg.Tracer,
			})
			if err != nil {
				return Report{}, err
			}
			sp := ScalingPoint{
				Mode: mode, Workers: w, Sessions: n,
				Met: pr.Verdict.Met, P99MTPMs: pr.Summary.P99MTPMs,
				WallSeconds: pr.WallSeconds,
			}
			if pr.WallSeconds > 0 {
				sp.SessionsPerSec = float64(n) / pr.WallSeconds
			}
			if first == nil {
				f := sp
				first = &f
				sp.Speedup, sp.Efficiency = 1, 1
			} else if first.SessionsPerSec > 0 {
				sp.Speedup = sp.SessionsPerSec / first.SessionsPerSec
				if ratio := float64(w) / float64(first.Workers); ratio > 0 {
					sp.Efficiency = sp.Speedup / ratio
				}
			}
			endWindow(fmt.Sprintf("scaling-%s w=%d", mode, w), pr.Summary, pr.Verdict.Met)
			rep.Scaling = append(rep.Scaling, sp)
			emit(Event{Event: "scaling", Scaling: &sp, WallSeconds: pr.WallSeconds})
		}
	}
	emit(Event{Event: "result", Outcome: outcome, KneeSessions: knee})
	return rep, nil
}

// pointOf projects the deterministic slice of a single-point run.
func pointOf(pr scenario.PointResult, windowSeconds float64) Point {
	s := pr.Summary
	return Point{
		Sessions:     pr.Sessions,
		Met:          pr.Verdict.Met,
		P99MTPMs:     s.P99MTPMs,
		TargetShare:  s.TargetShare,
		Dropped:      s.Dropped,
		FailedOver:   s.FailedOver,
		AggregateFPS: s.AggregateFPS,
		QueueMs:      s.QueueMs,
		GPUSeconds:   float64(pr.GPUs) * windowSeconds,
	}
}

// gridSessions spreads `points` session counts over
// [center*(1-span), center*(1+span)], clamped positive, deduplicated
// and ascending, always including the center itself.
func gridSessions(center, points int, span float64) []int {
	lo := float64(center) * (1 - span)
	hi := float64(center) * (1 + span)
	seen := map[int]bool{center: true}
	out := []int{center}
	for i := 0; i < points; i++ {
		f := 0.5
		if points > 1 {
			f = float64(i) / float64(points-1)
		}
		n := int(math.Round(lo + f*(hi-lo)))
		if n < 1 {
			n = 1
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sortInts(out)
	return out
}

// sortInts is a tiny insertion sort: grids are a handful of points,
// and it keeps the package free of a sort import for one call site.
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
