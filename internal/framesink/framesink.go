// Package framesink provides the standard pipeline.FrameSink
// implementations: the consumers a session streams its measured
// frames into instead of materializing a []FrameRecord.
//
// The package exists because the fleet engine's memory cost used to
// grow as sessions x phases x frames: every pipeline.Session kept its
// full per-frame record slice alive until aggregation re-scanned it.
// Streaming inverts that. A session emits each frame once, the sink
// folds it into whatever state the consumer actually needs, and the
// records themselves are never stored:
//
//   - StatsSink retains O(1) running sums per metric (via
//     pipeline.FrameStats, the same accumulator behind
//     pipeline.Result's convenience methods) plus one float64 per
//     frame — the motion-to-photon sample array that exact
//     nearest-rank percentiles require. ~8 bytes per frame instead of
//     a ~200-byte FrameRecord.
//   - RecordSink preserves the historical full-record behaviour for
//     consumers that genuinely need per-frame detail (qvr-sim's
//     -trace/-hist, the experiment harness's convergence series).
//
// Both sinks are plain structs with no locking: a sink belongs to one
// session run at a time. StatsSink.Reset supports the fleet's
// worker-local reuse pattern — one sink per worker, recycled across
// every session the worker claims, appending each session's samples
// to the worker's current sample buffer.
package framesink

import (
	"sort"

	"qvr/internal/pipeline"
	"qvr/internal/stats"
)

// Summary is the compact per-session result the fleet aggregates:
// exact streaming means for every reported metric plus the sorted
// motion-to-photon samples that exact percentiles need. It is the
// only per-session state a 100k-session scenario keeps.
type Summary struct {
	// Frames is the number of measured frames.
	Frames int
	// Streaming means, bit-identical to the corresponding
	// pipeline.Result scans.
	AvgMTPSeconds          float64
	FPS                    float64
	AvgBytesSent           float64
	AvgE1                  float64
	AvgResolutionReduction float64
	AvgEnergyJoules        float64
	// MTPSorted holds the session's motion-to-photon samples in
	// ascending order, seconds. Kept because tail latency is the
	// paper's judder metric and nearest-rank percentiles are exact
	// only on the real samples.
	MTPSorted []float64
}

// PercentileMTP returns the p-quantile (0 < p <= 1) of the session's
// motion-to-photon latency in seconds, nearest-rank — the same
// convention as pipeline.Result.PercentileMTP.
func (s Summary) PercentileMTP(p float64) float64 {
	return stats.NearestRankSorted(s.MTPSorted, p)
}

// StatsSink folds streamed frames into a Summary. The zero value is
// ready to use; Reset prepares it for the next session, optionally
// adopting a caller-owned sample buffer so a worker can serve many
// sessions from one allocation.
type StatsSink struct {
	acc   pipeline.FrameStats
	buf   []float64
	start int
}

// Observe implements pipeline.FrameSink.
func (s *StatsSink) Observe(f pipeline.FrameRecord) {
	s.acc.Observe(f)
	s.buf = append(s.buf, f.MTPSeconds)
}

// Reset clears the sink for a new session that appends its samples to
// buf (which may be nil). The fleet's worker loop passes its current
// sample buffer here, with room reserved for the session: each
// session's samples land in their own region of one pre-sized
// allocation shared with the worker's other sessions.
func (s *StatsSink) Reset(buf []float64) {
	s.acc.Reset()
	s.buf, s.start = buf, len(buf)
}

// Buffer returns the buf given to Reset extended by this session's
// samples: buf in, buf extended out, the same contract as
// fleet.SessionRunner.RunSession. Passed to the next Reset, it starts
// that session right after this one.
func (s *StatsSink) Buffer() []float64 { return s.buf }

// Summary finalizes the session: it sorts the session's sample region
// in place and returns the compact result. The returned Summary
// aliases that region, which is why the next Reset takes Buffer() and
// starts after it rather than on top of it; the slice is
// capacity-clipped so an append through the Summary can never bleed
// into a neighbouring session's region.
func (s *StatsSink) Summary() Summary {
	mtp := s.buf[s.start:len(s.buf):len(s.buf)]
	sort.Float64s(mtp)
	return Summary{
		Frames:                 s.acc.Frames,
		AvgMTPSeconds:          s.acc.AvgMTPSeconds(),
		FPS:                    s.acc.FPS(),
		AvgBytesSent:           s.acc.AvgBytesSent(),
		AvgE1:                  s.acc.AvgE1(),
		AvgResolutionReduction: s.acc.AvgResolutionReduction(),
		AvgEnergyJoules:        s.acc.AvgEnergyJoules(),
		MTPSorted:              mtp,
	}
}

// RecordSink materializes every streamed frame, preserving the
// historical full-record behaviour for consumers that need per-frame
// detail.
type RecordSink struct {
	Frames []pipeline.FrameRecord
}

// Observe implements pipeline.FrameSink.
func (r *RecordSink) Observe(f pipeline.FrameRecord) { r.Frames = append(r.Frames, f) }

// Result rebuilds a materialized pipeline.Result from a streamed run:
// res as returned by Session.RunSink plus the recorded frames.
func (r *RecordSink) Result(res pipeline.Result) pipeline.Result {
	res.Frames = r.Frames
	return res
}
