package pipeline

import (
	"reflect"
	"testing"

	"qvr/internal/netsim"
	"qvr/internal/scene"
)

// reuseCfg is a short run of design d. A perturbed config turns on
// every piece of per-run state a reused session could leak into the
// next run: gaze noise (the tracker's extra source), an outage (the
// link), a migration handoff (charged once per run), a slower network
// and a higher-resolution app (the display and partition memo).
func reuseCfg(d Design, perturbed bool) Config {
	app, seed := scene.EvalApps[1], int64(9)
	if perturbed {
		app, seed = scene.EvalApps[0], 5
	}
	c := DefaultConfig(d, app)
	c.Frames, c.Warmup, c.Seed = 40, 10, seed
	if perturbed {
		c.Network = netsim.LTE4G
		c.GazeNoiseDeg = 1
		c.OutageStartSeconds, c.OutageDurationSeconds = 0.15, 0.05
		c.RemoteHandoffSeconds = 0.02
	}
	return c
}

// TestResetMatchesNewSession reuses one Session across every design,
// each perturbed run followed by a plain run of the next design and
// the perturbed run again (A, B, A), and checks every run's records
// against a fresh NewSession's.
func TestResetMatchesNewSession(t *testing.T) {
	var sess Session
	prev := "nothing"
	for i, d := range Designs {
		a := reuseCfg(d, true)
		b := reuseCfg(Designs[(i+1)%len(Designs)], false)
		for _, cfg := range []Config{a, b, a} {
			want := NewSession(cfg).Run()
			sess.Reset(cfg)
			got := sess.Run()
			if len(want.Frames) != cfg.Frames {
				t.Fatalf("%v: fresh session measured %d frames, want %d", cfg.Design, len(want.Frames), cfg.Frames)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v on %s, reset after %s: result differs from a fresh session's", cfg.Design, cfg.App.Name, prev)
			}
			prev = cfg.Design.String() + " on " + cfg.App.Name
		}
	}
}

// countSink counts frames without retaining them.
type countSink struct{ n int }

func (c *countSink) Observe(FrameRecord) { c.n++ }

// TestResetRunAllocatesNothing: once a Q-VR session has run, resetting
// and running it again reuses every pool and allocates nothing.
func TestResetRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts depend on sync.Pool, which -race makes lossy")
	}
	cfg := reuseCfg(QVR, true)
	var sess Session
	var sink countSink
	sess.Reset(cfg)
	sess.RunSink(&sink)
	allocs := testing.AllocsPerRun(20, func() {
		sess.Reset(cfg)
		sess.RunSink(&sink)
	})
	if allocs != 0 {
		t.Errorf("Reset + RunSink on a warmed session: %v allocs, want 0", allocs)
	}
	if sink.n != 22*cfg.Frames {
		t.Errorf("measured %d frames over 22 runs, want %d", sink.n, 22*cfg.Frames)
	}
}

// TestResetReturnsUnusedSources resets a session that never ran, over
// and over: each Reset must hand the sources it holds back to the pool
// before taking fresh ones, so none is dropped and none is allocated.
func TestResetReturnsUnusedSources(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts depend on sync.Pool, which -race makes lossy")
	}
	cfg := reuseCfg(StaticCollab, true) // link, motion, gaze-noise and miss sources
	sess := NewSession(cfg)
	allocs := testing.AllocsPerRun(20, func() { sess.Reset(cfg) })
	if allocs != 0 {
		t.Errorf("Reset of a session that never ran: %v allocs, want 0", allocs)
	}
	if got, want := sess.Run().Frames, NewSession(cfg).Run().Frames; !reflect.DeepEqual(got, want) {
		t.Error("a session reset before its first run differs from a fresh one")
	}
}
