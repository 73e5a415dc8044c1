package scenario

import (
	"fmt"

	"qvr/internal/edge"
	"qvr/internal/fleet"
	"qvr/internal/gpu"
	"qvr/internal/obs"
)

// The single-point runner: one steady-state fleet window at an exact
// session count, on the scenario's declared infrastructure (mix,
// design, shared cluster or grid topology, cell capacity, SLO). This
// is the primitive the capacity probe (internal/capacity) binary-
// searches and sweeps — hoisted here so the timeline executor and the
// probe share one definition of "run the scenario's population at N".

// PointResult is one completed single-point run.
type PointResult struct {
	// Sessions is the requested session count (admitted plus dropped).
	Sessions int
	// Summary is the window's fleet roll-up. Host artifacts (wall time,
	// worker count) are zeroed so point reports are byte-identical
	// across runs and pool sizes.
	Summary fleet.Summary
	// Verdict judges the window against the scenario's [slo] section
	// (zero-valued, all-ok when the scenario declares none).
	Verdict fleet.SLOVerdict
	// GPUs is the total provisioned remote GPU count the point ran
	// against: the sum of the topology's cluster sizes in grid mode,
	// the shared cluster size otherwise (0 when admission is off).
	GPUs int
	// WallSeconds is the host wall-clock time the fleet run took — the
	// only non-deterministic field, reported for scaling studies and
	// excluded from deterministic output.
	WallSeconds float64
	// Fidelity is the mixed-fidelity cross-check report for the point;
	// nil when the scenario declares no [fidelity] section or the run
	// was exact-only.
	Fidelity *fleet.FidelityReport
}

// RunPoint runs the scenario's population at exactly n sessions for
// one steady-state window and judges it against the scenario's SLO.
// Phases, autoscale keys and per-phase overrides are ignored: a point
// probes the *declared* infrastructure (topology or shared cluster at
// its configured size), not a moment of the timeline. Results are
// deterministic for fixed (scenario, n) regardless of opt.Workers.
func RunPoint(sc Scenario, n int, opt Options) (PointResult, error) {
	if err := sc.Validate(); err != nil {
		return PointResult{}, err
	}
	if n <= 0 {
		return PointResult{}, fmt.Errorf("scenario %q: point session count %d must be positive", sc.Name, n)
	}
	frames, warmup := frameCounts(sc, opt)

	// A point is phase-less: global indices 0..n-1, no seed shift, so
	// mint(i) is mix.Specs's session i, minted inside the workers.
	mix, _ := fleet.MixByName(sc.Mix) // Validate checked it
	mint, err := mix.Minter(sc.Design, frames, warmup, sc.Seed)
	if err != nil {
		return PointResult{}, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}

	// Grid mode gets a fresh scheduler per point: capacity is a
	// steady-state question, so placements start from scratch rather
	// than inheriting another point's stickiness.
	grid, err := newGrid(sc, opt)
	if err != nil {
		return PointResult{}, err
	}
	if grid != nil {
		if err := grid.BeginPhase(nil, nil); err != nil {
			return PointResult{}, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}

	fc := fleetConfig(sc, opt, grid, sc.GPUs)
	fc.TraceLabel = fmt.Sprintf("%s@%d", sc.Name, n)
	fc.Source = &fleet.SpecSource{N: n, MeasuredFrames: mint(0).Config.MeasuredFrames(), At: mint}
	r, sum, err := runWindow(fc)
	if err != nil {
		return PointResult{}, fmt.Errorf("scenario %q at %d sessions: %w", sc.Name, n, err)
	}
	pt := PointResult{Sessions: n, Summary: sum, WallSeconds: r.WallSeconds, Fidelity: r.Fidelity}
	if sc.SLO != nil {
		pt.Verdict = sc.SLO.Evaluate(sum)
	}
	switch {
	case len(sc.Topology.Clusters) > 0:
		for _, c := range sc.Topology.Clusters {
			pt.GPUs += c.GPUs
		}
	case sc.GPUs > 0:
		pt.GPUs = sc.GPUs
	}
	return pt, nil
}

// runWindow runs one fleet window, the tail both the timeline
// executor and the single-point runner share, and rolls it up.
// Refute-and-refine, the failing half: a surrogate that drifted past
// its declared tolerance fails the window loudly — a silently wrong
// fast path is worse than no fast path. Wall time and pool size are
// host artifacts, not science; they are zeroed in the summary so
// reports are identical across runs and worker counts.
func runWindow(fc fleet.Config) (fleet.Result, fleet.Summary, error) {
	r := fleet.Run(fc)
	if fr := r.Fidelity; fr != nil {
		if err := obs.RefuteSurrogate(fr.Checks); err != nil {
			return r, fleet.Summary{}, err
		}
	}
	sum := r.Summarize()
	sum.WallSeconds, sum.Workers = 0, 0
	return r, sum, nil
}

// frameCounts resolves the measured and warmup frame counts a run
// uses: the scenario's own, unless opt overrides them.
func frameCounts(sc Scenario, opt Options) (frames, warmup int) {
	frames, warmup = sc.Frames, sc.Warmup
	if opt.FramesOverride > 0 {
		frames = opt.FramesOverride
	}
	if opt.WarmupOverride != nil && *opt.WarmupOverride >= 0 {
		warmup = *opt.WarmupOverride
	}
	return frames, warmup
}

// newGrid builds the scenario's edge grid with its placement policy,
// handoff penalty and counters; nil outside grid mode.
func newGrid(sc Scenario, opt Options) (*edge.Grid, error) {
	if len(sc.Topology.Clusters) == 0 {
		return nil, nil
	}
	policy, _ := edge.PolicyByName(sc.Placement) // "" -> default (Validate vetted the rest)
	grid, err := edge.NewGrid(sc.Topology, policy)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if sc.MigrationPenaltyMs >= 0 {
		grid.HandoffSeconds = sc.MigrationPenaltyMs / 1000
	}
	grid.SetObs(opt.Obs)
	return grid, nil
}

// fleetConfig builds the fleet run configuration both the timeline
// executor and the single-point runner use, minus the population: the
// grid owns every remote binding when present; otherwise a
// non-negative gpus count enables the shared-cluster admission layer
// (0 = total outage, everyone fails over); gpus < 0 leaves admission
// off.
func fleetConfig(sc Scenario, opt Options, grid *edge.Grid, gpus int) fleet.Config {
	fc := fleet.Config{
		Workers:      opt.Workers,
		CellCapacity: sc.CellCapacity,
		Obs:          opt.Obs,
		Tracer:       opt.Tracer,
		Fidelity:     fidelityConfig(sc, opt),
	}
	switch {
	case grid != nil:
		fc.Placer = grid
	case gpus >= 0:
		fc.Admission = fleet.Admission{
			Cluster:        gpu.DefaultRemote().WithGPUs(gpus),
			Enabled:        true,
			SessionsPerGPU: sc.SessionsPerGPU,
		}
	}
	return fc
}
