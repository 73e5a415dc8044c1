package scenario

import (
	"fmt"
	"math"

	"qvr/internal/autoscale"
	"qvr/internal/fleet"
	"qvr/internal/obs"
	"qvr/internal/obs/series"
	"qvr/internal/pipeline"
	"qvr/internal/surrogate"
)

// Options tunes how a timeline executes without changing what it
// simulates.
type Options struct {
	// Workers bounds each phase's fleet worker pool; 0 = all cores.
	// Worker count never affects results.
	Workers int
	// FramesOverride (> 0) replaces every phase's measured frame
	// count, and WarmupOverride (when non-nil) the warmup count — the
	// smoke path's way to run a scenario in miniature. A zero
	// FramesOverride / nil WarmupOverride keeps the scenario's own
	// settings, so the Options zero value changes nothing.
	FramesOverride int
	WarmupOverride *int
	// Obs, when set, receives decision counters and stage histograms
	// from every layer the run touches (fleet, grid, autoscaler, the
	// scenario driver itself); Tracer records span traces for a sampled
	// subset of sessions per phase. Neither affects results.
	Obs    *obs.Registry
	Tracer *obs.Tracer
	// Series, when set, closes one flight-recorder window per phase:
	// the phase's windowed gauges plus the counter deltas it
	// contributed, keyed on the scenario clock. Series must record the
	// same registry as Obs. Does not affect results.
	Series *series.Recorder
	// ExactOnly disables the scenario's [fidelity] fast path for this
	// run: every session goes through the exact DES. The capacity
	// prober uses it to confirm a fast-path knee exactly.
	ExactOnly bool
}

// Warmup wraps a warmup frame count for Options.WarmupOverride.
func Warmup(n int) *int { return &n }

// PhaseResult is one executed phase window.
type PhaseResult struct {
	// Phase echoes the timeline entry that produced this window.
	Phase Phase
	// Arrived/Departed count the population edits applied at phase
	// start; Active is the session count the phase then ran (admitted
	// plus dropped).
	Arrived, Departed int
	Active            int
	// Fleet is the window's fleet result: roll-up, drops, contention
	// and fidelity report. It keeps no per-session results, so
	// Fleet.Sessions is always empty.
	Fleet fleet.Result
	// Summary is the windowed metric roll-up, positioned on the
	// scenario clock. Host artifacts (wall time, worker count) are
	// zeroed so reports are byte-identical across runs and pool sizes.
	Summary fleet.PhaseSummary
	// GPUSeconds is the grid capacity consumed this window: the sum of
	// phase-effective cluster GPUs times the phase duration (0 outside
	// grid mode).
	GPUSeconds float64
	// SLOMet is this window's verdict against the scenario's [slo]
	// targets; nil when the scenario declares none.
	SLOMet *bool
	// ScaleEvents are the autoscaler decisions taken at the END of this
	// window, on this window's metrics (empty without autoscale.*).
	ScaleEvents []fleet.ScaleEvent
}

// Result is a completed scenario run.
type Result struct {
	Scenario Scenario
	Phases   []PhaseResult
	// Rollup is the timeline's incident report: worst-phase P99,
	// degradation over baseline, recovery time after the disruption.
	Rollup fleet.Rollup
	// Autoscale is the capacity controller's trip report: every scale
	// event, GPU-seconds consumed versus the provision-for-peak
	// baseline, and SLO attainment. Nil without autoscale.* keys.
	Autoscale *fleet.AutoscaleReport
}

// phaseSeedStride separates the per-phase derived seeds: a session
// carried across phases replays a fresh motion/channel trace each
// phase, deterministically.
const phaseSeedStride = 1_000_003

// Run executes the timeline: phase by phase, carrying the session
// population across boundaries, applying each phase's arrivals,
// departures, churn, network derates and cluster resizing, and
// running the fleet engine once per phase window. The result is
// deterministic for a given scenario regardless of Options.Workers.
func Run(sc Scenario, opt Options) (Result, error) {
	return run(sc, opt, nil)
}

// run is Run with an optional per-session sink: each, when set,
// receives phase pi's admitted session i from the fleet worker that
// ran it (see fleet.Config.Each), concurrently across indices.
func run(sc Scenario, opt Options, each func(pi, i int, sr fleet.SessionResult)) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	frames, warmup := frameCounts(sc, opt)

	out := Result{Scenario: sc}

	// Grid mode: one scheduler for the whole timeline, so placements
	// are sticky across phases and site outages surface as migrations.
	grid, err := newGrid(sc, opt)
	if err != nil {
		return Result{}, err
	}

	// The closed loop: one controller for the whole timeline, observing
	// each phase window and resizing the grid's base capacity for the
	// next. The scenario's [slo] is the target it provisions against.
	var ctrl fleet.Autoscaler
	if sc.Autoscale != nil {
		cfg := *sc.Autoscale
		cfg.SLO = *sc.SLO // Validate guarantees the SLO exists
		c, err := autoscale.New(cfg, sc.Topology)
		if err != nil {
			return Result{}, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		c.SetObs(opt.Obs)
		ctrl = c
	}

	var ctl *obs.Shard
	if opt.Obs != nil {
		ctl = opt.Obs.Ctl()
	}

	var (
		pop       population // carried population, oldest first
		next      int        // global arrival counter
		now       float64    // scenario clock
		summaries []fleet.PhaseSummary
	)
	for pi, ph := range sc.Phases {
		departed := 0

		// Population edits, in a fixed order so the timeline is
		// deterministic: explicit departures, churn, arrivals, then
		// the absolute target. Departing sessions are always the
		// oldest — the morning cohort logs off first.
		if d := min(ph.Depart, pop.size()); d > 0 {
			pop.pop(d)
			departed += d
		}
		churned := int(math.Floor(ph.Churn * float64(pop.size())))
		if churned > 0 {
			pop.pop(churned)
			departed += churned
		}
		arrive := ph.Arrive + int(math.Round(ph.ArrivalRate*ph.DurationSeconds)) + churned
		if t := ph.Sessions; t >= 0 {
			switch have := pop.size() + arrive; {
			case have > t:
				shed := have - t
				if fromActive := min(shed, pop.size()); fromActive > 0 {
					pop.pop(fromActive)
					departed += fromActive
					shed -= fromActive
				}
				arrive -= shed
			case have < t:
				arrive += t - have
			}
		}
		if arrive > 0 {
			mixName := sc.Mix
			if ph.Mix != "" {
				mixName = ph.Mix
			}
			mix, _ := fleet.MixByName(mixName) // Validate checked it
			mint, err := mix.Minter(sc.Design, frames, warmup, sc.Seed)
			if err != nil {
				return Result{}, fmt.Errorf("scenario %q phase %q: %w", sc.Name, ph.Name, err)
			}
			pop = append(pop, window{mint: mint, lo: next, hi: next + arrive})
			next += arrive
		}

		// Phase view of the carried population: same identities, a
		// phase-derived seed, this phase's frame budget, and any cell
		// derates, applied as each spec is minted. The population
		// itself stays pristine — a brownout ends when its phase does.
		phFrames := frames
		if ph.Frames > 0 && opt.FramesOverride <= 0 {
			phFrames = ph.Frames
		}
		seedShift := int64(pi+1) * phaseSeedStride
		src := &fleet.SpecSource{
			N:              pop.size(),
			MeasuredFrames: pipeline.Config{Frames: phFrames}.MeasuredFrames(),
			At: func(i int) fleet.SessionSpec {
				sp := pop.at(i)
				sp.Config.Seed += seedShift
				sp.Config.Frames = phFrames
				sp.Config.Warmup = warmup
				if f, ok := ph.NetScale[sp.Config.Network.Name]; ok {
					sp.Config.Network = sp.Config.Network.Scaled(f)
				}
				return sp
			},
		}

		if grid != nil {
			// The autoscaler's capacity lands first (provisions whose
			// warm-up elapsed by phase start), then the phase's own
			// overrides — a staged outage wins over any ordered GPUs.
			if ctrl != nil {
				if err := grid.SetBaseGPUs(ctrl.BaseGPUs(now)); err != nil {
					return Result{}, fmt.Errorf("scenario %q phase %q: %w", sc.Name, ph.Name, err)
				}
			}
			if err := grid.BeginPhase(ph.ClusterGPUs, ph.ClusterDerate); err != nil {
				return Result{}, fmt.Errorf("scenario %q phase %q: %w", sc.Name, ph.Name, err)
			}
		}
		if ctl != nil {
			ctl.Inc(obs.CPhases)
		}
		if opt.Tracer != nil {
			// The trace shows the same window boundaries the series
			// recorder keys its records on.
			opt.Tracer.MarkPhase(ph.Name, now)
		}
		fc := fleetConfig(sc, opt, grid, phaseGPUs(sc, ph))
		fc.TraceLabel = ph.Name
		fc.Source = src
		if each != nil {
			fc.Each = func(i int, sr fleet.SessionResult) { each(pi, i, sr) }
		}
		r := fleet.Run(fc)
		if fr := r.Fidelity; fr != nil {
			// Refute-and-refine, the failing half: a surrogate that
			// drifted past its declared tolerance fails the whole run
			// loudly, naming the phase — a silently wrong fast path is
			// worse than no fast path.
			if err := obs.RefuteSurrogate(fr.Checks); err != nil {
				return Result{}, fmt.Errorf("scenario %q phase %q: %w", sc.Name, ph.Name, err)
			}
		}

		sum := r.Summarize()
		// Wall time and pool size are host artifacts, not science;
		// zeroed so scenario reports are identical across runs and
		// worker counts.
		sum.WallSeconds, sum.Workers = 0, 0
		psum := fleet.PhaseSummary{
			Name:            ph.Name,
			StartSeconds:    now,
			DurationSeconds: ph.DurationSeconds,
			Summary:         sum,
		}
		pr := PhaseResult{
			Phase:    ph,
			Arrived:  arrive,
			Departed: departed,
			Active:   pop.size(),
			Fleet:    r,
			Summary:  psum,
		}
		var gridClusters []fleet.ClusterLoad
		if g := r.Contention.Grid; g != nil {
			gridClusters = g.Clusters
			for _, c := range g.Clusters {
				pr.GPUSeconds += float64(c.GPUs) * ph.DurationSeconds
				if ctl != nil {
					// Integer GPU-milliseconds per (phase, cluster): integer
					// accumulation keeps the counter order-independent, and
					// Refute checks it against the float report with a
					// rounding tolerance.
					ctl.Add(obs.CGridGPUMs, int64(math.Round(float64(c.GPUs)*ph.DurationSeconds*1000)))
				}
			}
		}
		if sc.SLO != nil {
			met := sc.SLO.Met(sum)
			pr.SLOMet = &met
		}
		if ctrl != nil {
			pr.ScaleEvents = ctrl.Observe(fleet.AutoscaleObservation{
				StartSeconds:    now,
				DurationSeconds: ph.DurationSeconds,
				Summary:         sum,
				Clusters:        gridClusters,
			})
		}
		if opt.Series != nil {
			// The window closes here — after the fleet quiesced and the
			// autoscaler took its end-of-window decisions — so the delta
			// snapshot sees every increment the phase caused.
			gauges := series.GaugesOf(sum, gridClusters)
			if fr := r.Fidelity; fr != nil {
				gauges.Fidelity = &series.FidelityGauge{
					Exact:     fr.ExactSessions,
					Surrogate: fr.SurrogateSessions,
					MaxError:  fr.MaxError,
					Refuted:   fr.Refuted,
				}
			}
			opt.Series.EndWindow(series.Window{
				T0: now, T1: now + ph.DurationSeconds, Label: ph.Name,
				Gauges: gauges,
				SLOMet: pr.SLOMet,
				Scale:  pr.ScaleEvents,
			})
		}
		out.Phases = append(out.Phases, pr)
		summaries = append(summaries, psum)
		now += ph.DurationSeconds
	}
	out.Rollup = fleet.RollUp(summaries)
	if ctrl != nil {
		out.Autoscale = autoscaleReport(out.Phases, now)
	}
	return out, nil
}

// autoscaleReport condenses the per-phase capacity accounting into
// the controller's trip report. The static-peak baseline is the
// provision-for-peak counterfactual: the timeline's highest total GPU
// count held for its entire duration.
func autoscaleReport(phases []PhaseResult, totalSeconds float64) *fleet.AutoscaleReport {
	rep := &fleet.AutoscaleReport{Events: []fleet.ScaleEvent{}}
	peakGPUs := 0.0
	for _, pr := range phases {
		rep.Events = append(rep.Events, pr.ScaleEvents...)
		rep.GPUSeconds += pr.GPUSeconds
		if pr.Phase.DurationSeconds > 0 {
			if g := pr.GPUSeconds / pr.Phase.DurationSeconds; g > peakGPUs {
				peakGPUs = g
			}
		}
		if pr.SLOMet != nil && pr.Summary.Summary.Sessions+pr.Summary.Summary.Dropped > 0 {
			rep.SLOEvalPhases++
			if *pr.SLOMet {
				rep.SLOMetPhases++
			}
		}
	}
	rep.StaticPeakGPUSeconds = peakGPUs * totalSeconds
	if rep.StaticPeakGPUSeconds > 0 {
		rep.SavedFraction = 1 - rep.GPUSeconds/rep.StaticPeakGPUSeconds
	}
	return rep
}

// fidelityConfig turns the scenario's [fidelity] declaration into the
// fleet seam, with a fresh surrogate model per call: each phase (and
// each capacity point) calibrates against its own population, so
// exemplars never leak across windows. Nil when the scenario declares
// no fidelity section or the caller asked for exact-only execution.
func fidelityConfig(sc Scenario, opt Options) *fleet.Fidelity {
	f := sc.Fidelity
	if f == nil || opt.ExactOnly {
		return nil
	}
	return &fleet.Fidelity{
		Runner:        surrogate.New(),
		ExactFraction: f.ExactFraction,
		Calibration:   f.Calibration,
		Tolerance:     f.Tolerance,
	}
}

// phaseGPUs resolves the effective cluster size for a phase: the
// phase override when set, else the scenario default; -1 means the
// admission layer stays off.
func phaseGPUs(sc Scenario, ph Phase) int {
	if ph.GPUs >= 0 {
		return ph.GPUs
	}
	return sc.GPUs
}

// population is the active session set as a FIFO of global-index
// windows, oldest first: one per arrival batch. Departures always take
// the oldest sessions and arrivals take the next global indices, so
// the windows tile one contiguous range.
type population []window

// window is the global indices [lo, hi), minted by the mix the batch
// arrived with.
type window struct {
	mint   func(int) fleet.SessionSpec
	lo, hi int
}

func (p population) size() int {
	if len(p) == 0 {
		return 0
	}
	return p[len(p)-1].hi - p[0].lo
}

// pop removes the k oldest sessions.
func (p *population) pop(k int) {
	for k > 0 {
		w := &(*p)[0]
		d := min(k, w.hi-w.lo)
		w.lo += d
		k -= d
		if w.lo == w.hi {
			*p = (*p)[1:]
		}
	}
}

// at mints the i-th oldest active session.
func (p population) at(i int) fleet.SessionSpec {
	g, k := p[0].lo+i, 0
	for k < len(p)-1 && g >= p[k].hi {
		k++
	}
	return p[k].mint(g)
}
