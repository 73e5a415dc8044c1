package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"qvr/internal/randpool"
	"qvr/internal/scene"
)

// drainPool empties the generator pool, so the next session builds its
// sources fresh, and returns what it took.
func drainPool() []*rand.Rand {
	var out []*rand.Rand
	for i := 0; i < 256; i++ {
		out = append(out, randpool.Get(int64(i)))
	}
	return out
}

// recycleCfgs exercises every pooled source: the static design draws
// its cache-miss source, gaze noise draws the tracker's, and Q-VR
// drives the link through the LIWC.
func recycleCfgs() []Config {
	var cfgs []Config
	for _, d := range []Design{StaticCollab, QVR} {
		c := DefaultConfig(d, scene.EvalApps[0])
		c.Frames, c.Warmup, c.Seed = 40, 10, 5
		c.GazeNoiseDeg = 1
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestRecycledSourcesMatchFresh runs each config on fresh sources,
// churns the pool through sessions of other seeds, and runs it again on
// recycled ones: the frame records must be identical.
func TestRecycledSourcesMatchFresh(t *testing.T) {
	for _, cfg := range recycleCfgs() {
		drainPool()
		fresh := NewSession(cfg).Run().Frames
		for seed := int64(100); seed < 104; seed++ {
			other := cfg
			other.Seed = seed
			NewSession(other).Run()
		}
		recycled := NewSession(cfg).Run().Frames
		if len(fresh) != cfg.Frames || !reflect.DeepEqual(fresh, recycled) {
			t.Errorf("%v: %d recycled frames differ from %d fresh ones", cfg.Design, len(recycled), len(fresh))
		}
	}
}

// TestRunSinkTwiceReturnsSourcesOnce runs a session's sink twice and
// then takes generators from the pool: a source returned twice would
// come out of it twice.
func TestRunSinkTwiceReturnsSourcesOnce(t *testing.T) {
	for _, cfg := range recycleCfgs() {
		drainPool()
		s := NewSession(cfg)
		var a, b recorder
		s.RunSink(&a)
		s.RunSink(&b)
		if len(a.frames) != cfg.Frames || len(b.frames) != 0 {
			t.Fatalf("%v: runs measured %d and %d frames, want %d and 0", cfg.Design, len(a.frames), len(b.frames), cfg.Frames)
		}
		seen := map[*rand.Rand]bool{}
		for _, r := range drainPool() {
			if seen[r] {
				t.Fatalf("%v: generator %p handed out twice", cfg.Design, r)
			}
			seen[r] = true
		}
	}
}
