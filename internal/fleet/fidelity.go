package fleet

import (
	"math"
	"sort"

	"qvr/internal/framesink"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
	"qvr/internal/stats"
)

// SessionRunner is the analytic fast-path seam: an alternative
// executor the worker pool can hand a session to instead of the exact
// discrete-event pipeline. internal/surrogate provides the production
// implementation; tests inject biased models to prove the refutation
// harness catches them.
//
// Implementations must be deterministic pure functions of their
// calibration inputs and the session config — the fleet's
// worker-count invariance contract extends to every fidelity.
// RunSession must be safe for concurrent use once Calibrate has
// returned.
type SessionRunner interface {
	// ClassOf maps a session config to its calibration class key.
	// Configs with equal keys are modelled by the same exemplars.
	ClassOf(cfg pipeline.Config) pipeline.Config
	// Calibrate runs the exact simulation on the given configs and
	// builds the model's internal table. The fleet picks the configs
	// (the first K members of each class in spec order).
	Calibrate(cfgs []pipeline.Config)
	// RunSession predicts one session, appending its motion-to-photon
	// samples to buf's tail (the framesink.StatsSink worker-buffer
	// contract) and returning the summary plus the grown buffer.
	RunSession(cfg pipeline.Config, buf []float64) (framesink.Summary, []float64)
}

// Tolerance is the per-metric error budget of a mixed-fidelity run:
// relative error for the scale metrics, absolute for the target-FPS
// share (a fraction compared to a fraction). Zero fields take the
// defaults.
type Tolerance struct {
	MTP   float64 `json:"mtp"`
	FPS   float64 `json:"fps"`
	Bytes float64 `json:"bytes"`
	Share float64 `json:"share"`
}

// Default fidelity tunables.
const (
	// DefaultExactFraction is the share of each class the stratified
	// sampler routes through the exact DES when the config leaves it 0.
	DefaultExactFraction = 0.05
	// DefaultCalibration is the exact runs per class used to build the
	// exemplar table when the config leaves it 0.
	DefaultCalibration = 3
	// Default per-metric tolerances: the motion-to-photon metrics get
	// more headroom because they are resampled distributions, not
	// copied means.
	DefaultToleranceMTP   = 0.15
	DefaultToleranceFPS   = 0.10
	DefaultToleranceBytes = 0.10
	DefaultToleranceShare = 0.10
)

func (t Tolerance) withDefaults() Tolerance {
	if t.MTP <= 0 {
		t.MTP = DefaultToleranceMTP
	}
	if t.FPS <= 0 {
		t.FPS = DefaultToleranceFPS
	}
	if t.Bytes <= 0 {
		t.Bytes = DefaultToleranceBytes
	}
	if t.Share <= 0 {
		t.Share = DefaultToleranceShare
	}
	return t
}

// Fidelity turns a fleet run mixed-fidelity: sessions execute through
// Runner's analytic fast path, except for a deterministic stratified
// sample (ExactFraction of every calibration class, evenly spread in
// spec order) that runs the exact DES *and* the surrogate so the two
// books can be compared metric by metric. The comparison lands in
// Result.Fidelity; callers gate on obs.RefuteSurrogate.
type Fidelity struct {
	Runner SessionRunner
	// ExactFraction is the per-class share of sessions cross-checked
	// against the exact DES; 0 means DefaultExactFraction. Every class
	// contributes at least one exact session.
	ExactFraction float64
	// Calibration is the exact runs per class that build the exemplar
	// table; 0 means DefaultCalibration.
	Calibration int
	// Tolerance is the per-metric error budget.
	Tolerance Tolerance
}

// FidelityReport is the refute-and-refine outcome of one mixed run:
// the session split, the per-metric comparison of the exact-DES
// stratified sample against the surrogate's prediction for the same
// sessions, and the verdict. It is reported as its own block so the
// exact-run JSON surface stays byte-for-byte unchanged.
type FidelityReport struct {
	// ExactSessions ran the full DES (the stratified cross-check
	// sample); SurrogateSessions took the analytic fast path;
	// CalibrationSessions are the extra exact runs that built the
	// exemplar table.
	ExactSessions       int `json:"exact_sessions"`
	SurrogateSessions   int `json:"surrogate_sessions"`
	CalibrationSessions int `json:"calibration_sessions"`
	// ExactFrames is the measured frames the exact sample streamed
	// through the stage sinks — the CFramesMeasured book of a mixed run.
	ExactFrames int64 `json:"exact_frames"`
	// ExactFraction echoes the effective per-class sampling fraction.
	ExactFraction float64 `json:"exact_fraction"`
	// Checks is the per-metric comparison in fixed metric order.
	Checks []obs.SurrogateCheck `json:"checks"`
	// MaxError is the largest per-metric error; Refuted is true when
	// any metric exceeded its tolerance.
	MaxError float64 `json:"max_error"`
	Refuted  bool    `json:"refuted"`
}

// fidelityState is the pre-pool bookkeeping of one mixed run: the
// stratified marks, the dense rank index, and the per-rank exact and
// predicted summaries the workers fill. Everything here is computed
// or indexed by spec position, so no part of it can depend on the
// worker count.
type fidelityState struct {
	runner   SessionRunner
	fraction float64
	tol      Tolerance
	marks    []bool
	rank     map[int]int
	exact    []framesink.Summary
	pred     []framesink.Summary
	calib    int
	total    int
}

// newFidelityState classifies the population, calibrates the runner
// on the first K members of each class, and marks the stratified
// exact sample: per class, max(1, round(fraction*members)) members
// evenly spread over the class's spec-order member list. All of it is
// single-threaded and in spec order, so marks and exemplars are
// identical for every worker count. at(i) must be pure.
func newFidelityState(fid *Fidelity, n int, at func(i int) pipeline.Config, ctl *obs.Shard) *fidelityState {
	f := &fidelityState{
		runner:   fid.Runner,
		fraction: fid.ExactFraction,
		tol:      fid.Tolerance.withDefaults(),
		total:    n,
	}
	if f.fraction <= 0 {
		f.fraction = DefaultExactFraction
	}
	k := fid.Calibration
	if k <= 0 {
		k = DefaultCalibration
	}

	classes := map[pipeline.Config][]int{}
	var calib []pipeline.Config
	for i := 0; i < n; i++ {
		cfg := at(i)
		key := f.runner.ClassOf(cfg)
		members := classes[key]
		if len(members) < k {
			calib = append(calib, cfg)
		}
		classes[key] = append(members, i)
	}
	f.runner.Calibrate(calib)
	f.calib = len(calib)
	if ctl != nil {
		ctl.Add(obs.CSurrogateCalibrated, int64(len(calib)))
	}

	// Per-class marks are disjoint index sets, so the map's iteration
	// order cannot reach the result.
	f.marks = make([]bool, n)
	for _, members := range classes {
		m := int(math.Round(f.fraction * float64(len(members))))
		if m < 1 {
			m = 1
		}
		if m > len(members) {
			m = len(members)
		}
		for j := 0; j < m; j++ {
			f.marks[members[j*len(members)/m]] = true
		}
	}
	f.rank = make(map[int]int)
	for i, marked := range f.marks {
		if marked {
			f.rank[i] = len(f.rank)
		}
	}
	f.exact = make([]framesink.Summary, len(f.rank))
	f.pred = make([]framesink.Summary, len(f.rank))
	return f
}

// report compares the two books metric by metric, in fixed order, and
// renders the verdict. Runs single-threaded after the pool quiesces;
// refuted metrics are counted at the comparison site.
func (f *fidelityState) report(ctl *obs.Shard) *FidelityReport {
	rep := &FidelityReport{
		ExactSessions:       len(f.exact),
		SurrogateSessions:   f.total - len(f.exact),
		CalibrationSessions: f.calib,
		ExactFraction:       f.fraction,
	}
	for _, s := range f.exact {
		rep.ExactFrames += int64(s.Frames)
	}

	exMTP := mergedSorted(f.exact)
	prMTP := mergedSorted(f.pred)
	check := func(metric string, exact, surr, err, tol float64) {
		ok := err <= tol
		if !ok {
			rep.Refuted = true
			if ctl != nil {
				ctl.Inc(obs.CFidelityRefuted)
			}
		}
		if err > rep.MaxError {
			rep.MaxError = err
		}
		rep.Checks = append(rep.Checks, obs.SurrogateCheck{
			Metric: metric, Exact: exact, Surrogate: surr,
			Error: err, Tolerance: tol, OK: ok,
		})
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50_mtp_ms", 0.50}, {"p95_mtp_ms", 0.95}, {"p99_mtp_ms", 0.99}} {
		e := stats.NearestRankSorted(exMTP, q.p) * 1000
		s := stats.NearestRankSorted(prMTP, q.p) * 1000
		check(q.name, e, s, relErr(e, s), f.tol.MTP)
	}

	var eMTP, pMTP, eFPS, pFPS, eBytes, pBytes float64
	eMeet, pMeet := 0, 0
	for r := range f.exact {
		eMTP += f.exact[r].AvgMTPSeconds
		pMTP += f.pred[r].AvgMTPSeconds
		eFPS += f.exact[r].FPS
		pFPS += f.pred[r].FPS
		eBytes += f.exact[r].AvgBytesSent
		pBytes += f.pred[r].AvgBytesSent
		if f.exact[r].FPS >= 0.95*pipeline.TargetFPS {
			eMeet++
		}
		if f.pred[r].FPS >= 0.95*pipeline.TargetFPS {
			pMeet++
		}
	}
	n := float64(len(f.exact))
	if n > 0 {
		check("mean_mtp_ms", eMTP/n*1000, pMTP/n*1000, relErr(eMTP, pMTP), f.tol.MTP)
		check("mean_fps", eFPS/n, pFPS/n, relErr(eFPS, pFPS), f.tol.FPS)
		check("mean_bytes", eBytes/n, pBytes/n, relErr(eBytes, pBytes), f.tol.Bytes)
		eShare, pShare := float64(eMeet)/n, float64(pMeet)/n
		check("target_share", eShare, pShare, math.Abs(eShare-pShare), f.tol.Share)
	}
	return rep
}

// mergedSorted concatenates the summaries' sorted sample arrays and
// sorts once — the same multiset convention as the fleet roll-up.
func mergedSorted(sums []framesink.Summary) []float64 {
	total := 0
	for _, s := range sums {
		total += len(s.MTPSorted)
	}
	out := make([]float64, 0, total)
	for _, s := range sums {
		out = append(out, s.MTPSorted...)
	}
	sort.Float64s(out)
	return out
}

// relErr is |e-s| relative to |e|; exact zeros compare exactly.
func relErr(e, s float64) float64 {
	if e == s {
		return 0
	}
	d := math.Abs(e - s)
	if a := math.Abs(e); a > 0 {
		return d / a
	}
	return d
}

// RefuteChecks adapts a result's fidelity block for the
// obs.RefuteSurrogate gate: nil when the run was pure-exact, so
// callers can gate unconditionally.
func (r Result) RefuteChecks() []obs.SurrogateCheck {
	if r.Fidelity == nil {
		return nil
	}
	return r.Fidelity.Checks
}
