package fleet

import (
	"math"
	"testing"

	"qvr/internal/framesink"
	"qvr/internal/gpu"
	"qvr/internal/pipeline"
)

// rerunMaterialized replays one admitted session's exact config
// through the full-record sink — the pre-streaming behaviour — and
// returns the legacy-style values.
func rerunMaterialized(cfg pipeline.Config) (frames int, avgMTP, fps, avgBytes, p99 float64) {
	var rec framesink.RecordSink
	res := rec.Result(pipeline.NewSession(cfg).RunSink(&rec))
	return len(res.Frames), res.AvgMTPSeconds(), res.FPS(), res.AvgBytesSent(), res.PercentileMTP(0.99)
}

// TestStreamingMatchesMaterializedFleet is the fleet-level
// sink-equivalence property across mixed tiers, admission queueing
// and cell sharing: every per-session summary the streaming engine
// kept must equal, bit for bit, what a full-record re-run of the same
// admitted config computes. (The admitted Config captures everything
// the admission layer did — shared cluster, queue delay, scaled
// bandwidth — so the re-run is the old engine in miniature.)
func TestStreamingMatchesMaterializedFleet(t *testing.T) {
	cluster := gpu.DefaultRemote()
	cluster.GPUs = 2
	r := Run(Config{
		Specs:        testSpecs(t, 12),
		Workers:      3,
		Admission:    Admission{Cluster: cluster},
		CellCapacity: 4,
	})
	if len(r.Sessions) == 0 {
		t.Fatal("no admitted sessions")
	}
	for _, sr := range r.Sessions {
		frames, avgMTP, fps, avgBytes, p99 := rerunMaterialized(sr.Config)
		st := sr.Stats
		if st.Frames != frames {
			t.Fatalf("%s: %d streamed frames, %d materialized", sr.ID, st.Frames, frames)
		}
		for name, pair := range map[string][2]float64{
			"avg_mtp": {st.AvgMTPSeconds, avgMTP},
			"fps":     {st.FPS, fps},
			"bytes":   {st.AvgBytesSent, avgBytes},
			"p99":     {st.PercentileMTP(0.99), p99},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("%s: %s streamed %v != materialized %v", sr.ID, name, pair[0], pair[1])
			}
		}
	}
}

// TestShardingInvariance: the claiming worker loop (with its
// worker-local reusable buffers) must produce identical summaries for
// every pool size, including pools larger than the fleet and pools
// that do not divide it.
func TestShardingInvariance(t *testing.T) {
	specs := testSpecs(t, 11) // prime count: uneven shards everywhere
	var ref Summary
	for i, workers := range []int{1, 2, 3, 5, 16} {
		s := Run(Config{Specs: specs, Workers: workers}).Summarize()
		s.Workers, s.WallSeconds = 0, 0
		if i == 0 {
			ref = s
			continue
		}
		if s != ref {
			t.Fatalf("workers=%d changed the summary: %+v vs %+v", workers, s, ref)
		}
	}
}

// rolledUp builds the Result Run would return for the given sessions:
// their tallies and sample regions through rollUp, one buffer each.
func rolledUp(sessions []SessionResult) Result {
	tallies := make([]tally, len(sessions))
	bufs := make([][]float64, len(sessions))
	for i, sr := range sessions {
		tallies[i] = tally{fps: sr.Stats.FPS, bytes: sr.Stats.AvgBytesSent}
		bufs[i] = sr.Stats.MTPSorted
	}
	return Result{Sessions: sessions, summary: rollUp(tallies, bufs, 0)}
}

// TestSummarizeZeroFrameSession: a session that measured no frames
// (artificially constructed — the config floor prevents it in
// practice) must flow through the windowed roll-up as a zero-FPS
// member, never as NaN.
func TestSummarizeZeroFrameSession(t *testing.T) {
	live := Run(Config{Specs: testSpecs(t, 2)})
	r := rolledUp(append(live.Sessions, SessionResult{
		ID: NamedID("empty"),
	}))
	s := r.Summarize()
	finite(t, "zero-frame-session", s)
	if s.Sessions != 3 {
		t.Fatalf("sessions = %d, want 3", s.Sessions)
	}
	// The empty session contributes zero FPS and misses target.
	if s.TargetShare > 2.0/3 {
		t.Errorf("target share %v should count the zero-frame session as missing", s.TargetShare)
	}
	if s.P99MTPMs <= 0 {
		t.Errorf("percentiles should still come from the live sessions, got p99=%v", s.P99MTPMs)
	}

	// An all-empty fleet: zero everywhere, still finite.
	empty := rolledUp([]SessionResult{{ID: NamedID("a")}, {ID: NamedID("b")}})
	es := empty.Summarize()
	finite(t, "all-zero-frame", es)
	if es.P99MTPMs != 0 || es.MeanFPS != 0 || es.TargetShare != 0 {
		t.Errorf("all-empty fleet should be zero: %+v", es)
	}
}

// TestRollupEmptyWindows: a timeline whose disruption is an empty
// window (zero sessions, zero frames) must keep the roll-up finite
// and skip the empty phases when picking the baseline.
func TestRollupEmptyWindows(t *testing.T) {
	traffic := Run(Config{Specs: testSpecs(t, 3)}).Summarize()
	var zero Summary
	phases := []PhaseSummary{
		{Name: "empty-start", StartSeconds: 0, DurationSeconds: 60, Summary: zero},
		{Name: "traffic", StartSeconds: 60, DurationSeconds: 60, Summary: traffic},
		{Name: "empty-middle", StartSeconds: 120, DurationSeconds: 60, Summary: zero},
		{Name: "traffic-2", StartSeconds: 180, DurationSeconds: 60, Summary: traffic},
	}
	roll := RollUp(phases)
	if roll.BaselinePhase != "traffic" {
		t.Errorf("baseline picked %q, want the first phase with traffic", roll.BaselinePhase)
	}
	for name, v := range map[string]float64{
		"baseline":    roll.BaselineP99Ms,
		"worst":       roll.WorstP99Ms,
		"degradation": roll.DegradationFactor,
		"recovery":    roll.RecoverySeconds,
		"worst_share": roll.WorstTargetShare,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("roll-up %s = %v, want finite", name, v)
		}
	}
	if roll.Disrupted {
		t.Error("empty windows must not register as disruptions")
	}

	// A timeline of only empty windows: nothing to disrupt, nothing NaN.
	all := RollUp([]PhaseSummary{{Name: "a", Summary: zero}, {Name: "b", Summary: zero}})
	if all.Disrupted || math.IsNaN(all.DegradationFactor) {
		t.Errorf("all-empty timeline roll-up wrong: %+v", all)
	}
}
