package framesink

import (
	"math"
	"testing"

	"qvr/internal/netsim"
	"qvr/internal/pipeline"
	"qvr/internal/scene"
)

// configs spans the design/network/tier space the fleet mixes draw
// from, so the equivalence property is checked where it matters:
// heterogeneous sessions, remote queueing, WAN paths, failover-style
// local-only runs, and migration handoffs.
func configs(t testing.TB) []pipeline.Config {
	t.Helper()
	app := func(name string) scene.App {
		a, ok := scene.AppByName(name)
		if !ok {
			t.Fatalf("unknown app %q", name)
		}
		return a
	}
	base := func(d pipeline.Design, appName string, seed int64) pipeline.Config {
		cfg := pipeline.DefaultConfig(d, app(appName))
		cfg.Frames = 24
		cfg.Warmup = 8
		cfg.Seed = seed
		return cfg
	}
	qvrLTE := base(pipeline.QVR, "HL2-H", 3)
	qvrLTE.Network = netsim.LTE4G

	queued := base(pipeline.QVR, "UT3", 4)
	queued.RemoteQueueSeconds = 0.004 // shared-cluster contention

	migrated := base(pipeline.QVR, "GRID", 5)
	migrated.RemoteClusterName = "eu-central"
	migrated.RemotePath = netsim.Condition{RTTSeconds: 0.070, BandwidthBps: 200e6, Efficiency: 0.9}
	migrated.RemoteHandoffSeconds = 0.050 // edge-grid migration stall

	outage := base(pipeline.QVR, "Wolf", 6)
	outage.OutageStartSeconds = 0.1
	outage.OutageDurationSeconds = 0.2

	return []pipeline.Config{
		base(pipeline.QVR, "GRID", 1),
		base(pipeline.LocalOnly, "Doom3-L", 2), // admission failover path
		base(pipeline.StaticCollab, "UT3", 7),
		base(pipeline.DFR, "HL2-L", 8),
		qvrLTE,
		queued,
		migrated,
		outage,
	}
}

// TestStatsSinkMatchesRecordSink is the sink-equivalence property:
// for any session, the streaming summary must match the values
// computed from the materialized full records bit-for-bit — not
// approximately, because the fleet's byte-identical JSON contract
// rides on it.
func TestStatsSinkMatchesRecordSink(t *testing.T) {
	for _, cfg := range configs(t) {
		var stats StatsSink
		stats.Reset(nil)
		pipeline.NewSession(cfg).RunSink(&stats)
		sum := stats.Summary()

		var rec RecordSink
		full := rec.Result(pipeline.NewSession(cfg).RunSink(&rec))

		label := cfg.Design.String() + "/" + cfg.App.Name
		if sum.Frames != len(full.Frames) {
			t.Fatalf("%s: streamed %d frames, materialized %d", label, sum.Frames, len(full.Frames))
		}
		exact := map[string][2]float64{
			"avg_mtp":   {sum.AvgMTPSeconds, full.AvgMTPSeconds()},
			"fps":       {sum.FPS, full.FPS()},
			"avg_bytes": {sum.AvgBytesSent, full.AvgBytesSent()},
			"avg_e1":    {sum.AvgE1, full.AvgE1()},
			"res_red":   {sum.AvgResolutionReduction, full.AvgResolutionReduction()},
			"energy":    {sum.AvgEnergyJoules, full.AvgEnergyJoules()},
			"p50":       {sum.PercentileMTP(0.50), full.PercentileMTP(0.50)},
			"p95":       {sum.PercentileMTP(0.95), full.PercentileMTP(0.95)},
			"p99":       {sum.PercentileMTP(0.99), full.PercentileMTP(0.99)},
		}
		for name, v := range exact {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				t.Errorf("%s: %s differs: streamed %v, materialized %v", label, name, v[0], v[1])
			}
		}
	}
}

// TestRecordSinkMatchesRun: the streaming record path must reproduce
// Session.Run's materialized frames exactly.
func TestRecordSinkMatchesRun(t *testing.T) {
	for _, cfg := range configs(t)[:3] {
		var rec RecordSink
		streamed := rec.Result(pipeline.NewSession(cfg).RunSink(&rec))
		direct := pipeline.NewSession(cfg).Run()
		if len(streamed.Frames) != len(direct.Frames) {
			t.Fatalf("frame count: streamed %d, direct %d", len(streamed.Frames), len(direct.Frames))
		}
		for i := range direct.Frames {
			if streamed.Frames[i] != direct.Frames[i] {
				t.Fatalf("frame %d differs between RunSink(RecordSink) and Run", i)
			}
		}
	}
}

// TestSinkOrderAndWarmup: frames arrive in index order and warmup
// frames are never emitted.
func TestSinkOrderAndWarmup(t *testing.T) {
	cfg := configs(t)[0]
	var rec RecordSink
	pipeline.NewSession(cfg).RunSink(&rec)
	if len(rec.Frames) != cfg.Frames {
		t.Fatalf("emitted %d frames, want %d", len(rec.Frames), cfg.Frames)
	}
	for i, f := range rec.Frames {
		if f.Index != cfg.Warmup+i {
			t.Fatalf("frame %d has index %d, want %d (in order, post-warmup)", i, f.Index, cfg.Warmup+i)
		}
	}
}

// TestStatsSinkBufferReuse: the worker-local reuse pattern — one
// buffer serving consecutive sessions — must give each session its
// own region and identical summaries to fresh-buffer runs. Buffer is
// the buffer given to Reset extended by the session's samples, so
// after the loop it holds every session's samples in one allocation.
func TestStatsSinkBufferReuse(t *testing.T) {
	cfgs := configs(t)[:4]
	total := 0
	for _, cfg := range cfgs {
		total += cfg.Frames
	}
	buf := make([]float64, 0, total)
	var sink StatsSink
	var shared []Summary
	for i, cfg := range cfgs {
		prior := len(buf)
		sink.Reset(buf)
		pipeline.NewSession(cfg).RunSink(&sink)
		shared = append(shared, sink.Summary())
		buf = sink.Buffer()
		if len(buf) != prior+cfg.Frames {
			t.Fatalf("session %d: Buffer holds %d samples, want %d prior + %d", i, len(buf), prior, cfg.Frames)
		}
	}
	if cap(buf) != total {
		t.Errorf("shared buffer reallocated: cap %d, want %d", cap(buf), total)
	}
	for i, cfg := range cfgs {
		var fresh StatsSink
		fresh.Reset(nil)
		pipeline.NewSession(cfg).RunSink(&fresh)
		want := fresh.Summary()
		got := shared[i]
		if got.Frames != want.Frames || got.AvgMTPSeconds != want.AvgMTPSeconds ||
			got.FPS != want.FPS || got.PercentileMTP(0.99) != want.PercentileMTP(0.99) {
			t.Errorf("session %d: shared-buffer summary differs from fresh-buffer summary", i)
		}
	}
}

// TestSummaryCapacityClip: a Summary's MTPSorted is capacity-clipped
// to its session's region of a shared buffer, so an append through it
// reallocates rather than writing into the next session's samples —
// whether the next session has already run or runs afterwards.
func TestSummaryCapacityClip(t *testing.T) {
	cfgs := configs(t)[:3]
	buf := make([]float64, 0, 3*cfgs[0].Frames)
	var sink StatsSink
	run := func(cfg pipeline.Config) Summary {
		sink.Reset(buf)
		pipeline.NewSession(cfg).RunSink(&sink)
		s := sink.Summary()
		buf = sink.Buffer()
		return s
	}
	a := run(cfgs[0])
	if cap(a.MTPSorted) != len(a.MTPSorted) {
		t.Fatalf("MTPSorted cap %d, want its length %d", cap(a.MTPSorted), len(a.MTPSorted))
	}
	grown := append(a.MTPSorted, -1) // before the next session runs
	b := run(cfgs[1])
	bWant := append([]float64(nil), b.MTPSorted...)
	grownB := append(a.MTPSorted, -2) // after it ran
	c := run(cfgs[2])
	if &grown[0] == &a.MTPSorted[0] || &grownB[0] == &a.MTPSorted[0] {
		t.Fatal("an append through MTPSorted wrote into the shared buffer")
	}
	for i, v := range b.MTPSorted {
		if v != bWant[i] || v < 0 {
			t.Fatalf("session b sample %d = %v, want %v: an append through a's summary reached it", i, v, bWant[i])
		}
	}
	if c.MTPSorted[0] < 0 || &c.MTPSorted[0] != &buf[len(a.MTPSorted)+len(b.MTPSorted)] {
		t.Error("session c does not start right after b in the shared buffer")
	}
}

// TestSummaryEmpty: a summary over zero frames reports zeros, never
// NaN — the empty-window guarantee the fleet's phase summaries need.
func TestSummaryEmpty(t *testing.T) {
	var sink StatsSink
	sink.Reset(nil)
	sum := sink.Summary()
	for name, v := range map[string]float64{
		"avg_mtp": sum.AvgMTPSeconds, "fps": sum.FPS, "bytes": sum.AvgBytesSent,
		"e1": sum.AvgE1, "res_red": sum.AvgResolutionReduction,
		"energy": sum.AvgEnergyJoules, "p99": sum.PercentileMTP(0.99),
	} {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("empty summary %s = %v, want 0", name, v)
		}
	}
}
