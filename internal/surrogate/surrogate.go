// Package surrogate is the calibrated analytic session model behind
// the fleet's mixed-fidelity fast path: a per-class exemplar table
// built from a handful of exact discrete-event runs, from which any
// session's summary metrics — motion-to-photon percentiles, FPS,
// bytes, energy — are predicted in microseconds instead of the full
// simulation.
//
// The model follows the refute-and-refine discipline end to end.
// Sessions are grouped into calibration classes: two sessions belong
// to the same class when their pipeline.Config differs only by Seed,
// so everything the admission layer decided — shared-cluster speedup,
// queue delay, scaled cell bandwidth — is part of the class key and
// the surrogate sees exactly the contention the exact simulator
// would. Calibrate runs the exact DES on a few exemplars per class;
// RunSession then predicts a session by picking an exemplar from the
// session's own seed and resampling the exemplar's motion-to-photon
// distribution by inverse transform, so a predicted population has a
// real latency spread rather than K identical spikes. Every
// prediction is a pure function of (config, exemplar table), and the
// exemplar table is a pure function of the calibration configs, so
// the fast path inherits the repository's worker-count determinism
// contract for free.
//
// The model never certifies itself: fleet's fidelity harness routes a
// stratified sample of every mixed run through the exact DES, and
// obs.RefuteSurrogate fails the run when the prediction drifts past
// the declared tolerance.
package surrogate

import (
	"sort"

	"qvr/internal/framesink"
	"qvr/internal/pipeline"
)

// Model is a calibrated exemplar table, keyed by calibration class.
// It implements fleet.SessionRunner. Calibrate must complete before
// RunSession is called from worker goroutines; after calibration the
// table is read-only and safe for concurrent prediction.
type Model struct {
	classes map[pipeline.Config][]framesink.Summary
}

// New returns an empty, uncalibrated model.
func New() *Model {
	return &Model{classes: map[pipeline.Config][]framesink.Summary{}}
}

// ClassOf maps a session config to its calibration class key: the
// config with the Seed zeroed. Sessions in one class share app,
// device, network, design and every admission adjustment — only their
// random traces differ, which is precisely the axis the exemplar
// resampling models.
func (m *Model) ClassOf(cfg pipeline.Config) pipeline.Config {
	cfg.Seed = 0
	return cfg
}

// Classes reports how many calibration classes the table holds.
func (m *Model) Classes() int { return len(m.classes) }

// Calibrate runs the exact discrete-event simulation on every given
// config and files the resulting summary as an exemplar of its class.
// The caller chooses the exemplars (the fleet takes the first K
// members of each class in spec order), so the table is a pure
// function of the calibration list. One session borrowed from the
// shared warm pool runs the whole list, and every exemplar's samples
// share one pre-sized buffer, each summary aliasing its own region.
func (m *Model) Calibrate(cfgs []pipeline.Config) {
	frames := 0
	for _, cfg := range cfgs {
		frames += cfg.MeasuredFrames()
	}
	buf := make([]float64, 0, frames)
	sess := pipeline.GetSession()
	defer pipeline.PutSession(sess)
	var sink framesink.StatsSink
	for _, cfg := range cfgs {
		sink.Reset(buf)
		sess.Reset(cfg)
		sess.RunSink(&sink)
		buf = sink.Buffer()
		key := m.ClassOf(cfg)
		m.classes[key] = append(m.classes[key], sink.Summary())
	}
}

// RunSession predicts one session analytically. The session's seed
// deterministically picks one of the class's exemplars, then the
// exemplar's motion-to-photon distribution is resampled by inverse
// transform — one draw per measured frame — into buf's tail, exactly
// the worker-buffer contract framesink.StatsSink uses, so a fleet
// worker can serve exact and surrogate sessions from one allocation.
// The returned summary aliases its sorted sample region of the grown
// buffer.
//
// A config whose class was never calibrated falls back to the exact
// simulation, on a session borrowed from the shared warm pool: an
// uncalibrated class must not fabricate numbers.
func (m *Model) RunSession(cfg pipeline.Config, buf []float64) (framesink.Summary, []float64) {
	exs := m.classes[m.ClassOf(cfg)]
	if len(exs) == 0 {
		sess := pipeline.GetSession()
		var sink framesink.StatsSink
		sink.Reset(buf)
		sess.Reset(cfg)
		sess.RunSink(&sink)
		pipeline.PutSession(sess)
		// StatsSink keeps the same contract: Buffer is buf extended by
		// this session's samples.
		return sink.Summary(), sink.Buffer()
	}
	rng := sm64(cfg.Seed)
	ex := exs[int(rng.next()%uint64(len(exs)))]
	frames := cfg.MeasuredFrames()
	start := len(buf)
	var sum float64
	if n := len(ex.MTPSorted); n > 0 {
		for f := 0; f < frames; f++ {
			idx := int(rng.float64() * float64(n))
			if idx >= n {
				idx = n - 1
			}
			v := ex.MTPSorted[idx]
			sum += v
			buf = append(buf, v)
		}
	}
	region := buf[start:len(buf):len(buf)]
	sort.Float64s(region)
	avg := 0.0
	if len(region) > 0 {
		avg = sum / float64(len(region))
	}
	return framesink.Summary{
		Frames:                 frames,
		AvgMTPSeconds:          avg,
		FPS:                    ex.FPS,
		AvgBytesSent:           ex.AvgBytesSent,
		AvgE1:                  ex.AvgE1,
		AvgResolutionReduction: ex.AvgResolutionReduction,
		AvgEnergyJoules:        ex.AvgEnergyJoules,
		MTPSorted:              region,
	}, buf
}

// sm64 is a splitmix64 stream: the standard 64-bit mixer, seeded from
// the session's own seed. A local generator (not math/rand) keeps the
// prediction a pure allocation-free function of the config and keeps
// the fast path clear of any global random state.
type sm64 uint64

func (s *sm64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (s *sm64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
