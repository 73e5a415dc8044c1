package motion

import (
	"math"
	"testing"
	"testing/quick"

	"qvr/internal/vec"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(Normal, 7)
	b := NewGenerator(Normal, 7)
	for i := 0; i < 200; i++ {
		sa := a.Advance(1.0 / 120)
		sb := b.Advance(1.0 / 120)
		if sa != sb {
			t.Fatalf("sample %d diverged: %+v vs %+v", i, sa, sb)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := NewGenerator(Normal, 1)
	b := NewGenerator(Normal, 2)
	same := 0
	for i := 0; i < 100; i++ {
		sa := a.Advance(1.0 / 120)
		sb := b.Advance(1.0 / 120)
		if sa.Gaze == sb.Gaze {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different seeds produced %d/100 identical gaze samples", same)
	}
}

func TestGazeStaysInBounds(t *testing.T) {
	g := NewGenerator(Intense, 3)
	for i := 0; i < 5000; i++ {
		s := g.Advance(1.0 / 120)
		if s.Gaze.X < -40 || s.Gaze.X > 40 || s.Gaze.Y < -30 || s.Gaze.Y > 30 {
			t.Fatalf("gaze out of bounds at step %d: %v", i, s.Gaze)
		}
	}
}

func TestInteractDistBounds(t *testing.T) {
	for _, p := range []Profile{Calm, Normal, Intense} {
		g := NewGenerator(p, 11)
		for i := 0; i < 3000; i++ {
			s := g.Advance(1.0 / 90)
			if s.InteractDist < 0 || s.InteractDist > p.MaxDist*1.01 {
				t.Fatalf("%s: interact dist %v out of [0,%v]", p.Name, s.InteractDist, p.MaxDist)
			}
		}
	}
}

func TestIntenseMovesMoreThanCalm(t *testing.T) {
	sumMag := func(p Profile) float64 {
		g := NewGenerator(p, 5)
		prev := g.Advance(1.0 / 90)
		total := 0.0
		for i := 0; i < 2000; i++ {
			cur := g.Advance(1.0 / 90)
			total += Sub(prev, cur).Magnitude()
			prev = cur
		}
		return total
	}
	calm, intense := sumMag(Calm), sumMag(Intense)
	if intense <= calm {
		t.Errorf("intense motion (%v) not greater than calm (%v)", intense, calm)
	}
}

func TestTimeAdvances(t *testing.T) {
	g := NewGenerator(Normal, 1)
	prev := 0.0
	for i := 0; i < 100; i++ {
		s := g.Advance(0.01)
		if s.TimeSec <= prev {
			t.Fatalf("time did not advance: %v -> %v", prev, s.TimeSec)
		}
		prev = s.TimeSec
	}
}

func TestAdvanceNonPositiveDT(t *testing.T) {
	g := NewGenerator(Normal, 1)
	s := g.Advance(0)
	if s.TimeSec <= 0 {
		t.Errorf("zero dt should still advance slightly, got t=%v", s.TimeSec)
	}
}

func TestSubIdentityIsZero(t *testing.T) {
	g := NewGenerator(Normal, 9)
	s := g.Advance(0.01)
	d := Sub(s, s)
	if d.Magnitude() > 1e-12 {
		t.Errorf("Sub(s,s) magnitude = %v", d.Magnitude())
	}
}

func TestSubDetectsYaw(t *testing.T) {
	a := Sample{Head: Pose{Orientation: vec.FromEuler(0, 0, 0)}}
	b := Sample{Head: Pose{Orientation: vec.FromEuler(rad(10), 0, 0)}}
	d := Sub(a, b)
	if math.Abs(d.DYaw-10) > 0.01 {
		t.Errorf("DYaw = %v, want 10", d.DYaw)
	}
	if math.Abs(d.DPitch) > 0.01 || math.Abs(d.DRoll) > 0.01 {
		t.Errorf("cross-axis leakage: pitch=%v roll=%v", d.DPitch, d.DRoll)
	}
}

func TestAngleDiffWraps(t *testing.T) {
	if got := angleDiff(math.Pi-0.1, -math.Pi+0.1); math.Abs(got+0.2) > 1e-9 {
		t.Errorf("wrap diff = %v, want -0.2", got)
	}
	if got := angleDiff(0.1, -0.1); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("plain diff = %v, want 0.2", got)
	}
}

func TestAngleDiffProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 10)
		b = math.Mod(b, 10)
		d := angleDiff(a, b)
		return d > -math.Pi-1e-9 && d <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEulerRoundTrip(t *testing.T) {
	yaws := []float64{0, 0.3, -1.2, 2.5}
	pitches := []float64{0, 0.5, -0.9}
	rolls := []float64{0, 0.2, -0.3}
	for _, y := range yaws {
		for _, p := range pitches {
			for _, r := range rolls {
				q := vec.FromEuler(y, p, r)
				e := eulerOf(q)
				if math.Abs(angleDiff(e[0], y)) > 1e-6 ||
					math.Abs(angleDiff(e[1], p)) > 1e-6 ||
					math.Abs(angleDiff(e[2], r)) > 1e-6 {
					t.Errorf("euler roundtrip (%v,%v,%v) -> %v", y, p, r, e)
				}
			}
		}
	}
}

func TestTrackerReturnsPastSample(t *testing.T) {
	tr := NewTracker(NewGenerator(Normal, 1), 120, 0.002)
	s := tr.SampleAt(0.1)
	if s.TimeSec > 0.1-0.002+1e-9 {
		t.Errorf("sample from the future: sensed at %v for request at 0.1", s.TimeSec)
	}
}

func TestTrackerMonotonicRequests(t *testing.T) {
	tr := NewTracker(NewGenerator(Normal, 2), 120, 0.002)
	prev := -1.0
	for ft := 0.05; ft < 2.0; ft += 0.011 {
		s := tr.SampleAt(ft)
		if s.TimeSec < prev {
			t.Fatalf("sample time went backwards: %v after %v", s.TimeSec, prev)
		}
		prev = s.TimeSec
	}
}

func TestTrackerFrequency(t *testing.T) {
	tr := NewTracker(NewGenerator(Normal, 3), 120, 0.002)
	a := tr.SampleAt(0.5)
	b := tr.SampleAt(0.5 + 1.0/120 + 1e-6)
	if b.TimeSec <= a.TimeSec {
		t.Errorf("tracker did not produce a new sample after one period")
	}
	gap := b.TimeSec - a.TimeSec
	if gap > 2.0/120+1e-6 {
		t.Errorf("sample gap %v exceeds two periods", gap)
	}
}

func TestTrackerDefaults(t *testing.T) {
	tr := NewTracker(NewGenerator(Calm, 1), 0, -1)
	if tr.hz != DefaultTrackerHz {
		t.Errorf("hz default = %v", tr.hz)
	}
	if tr.TransmitLatency() != DefaultTransmitLatency {
		t.Errorf("transmit default = %v", tr.TransmitLatency())
	}
}

func TestTrackerWindowBounded(t *testing.T) {
	tr := NewTracker(NewGenerator(Normal, 4), 120, 0.002)
	// A long simulated stretch generates hundreds of samples; the
	// cache must stay a fixed-size window regardless.
	tr.SampleAt(3.0)
	if len(tr.samples) > sampleWindow {
		t.Errorf("cache holds %d samples, want <= %d", len(tr.samples), sampleWindow)
	}
	// The window must still answer later requests correctly.
	s := tr.SampleAt(3.1)
	if s.TimeSec < 2.4 || s.TimeSec > 3.1-0.002+1e-9 {
		t.Errorf("post-window sample out of range: %v", s.TimeSec)
	}
}

// TestTrackerWindowMatchesUnbounded replays a frame-like request
// sequence and checks the bounded window returns exactly the sample
// an unbounded cache would have: the newest sensed at or before the
// request's availability horizon.
func TestTrackerWindowMatchesUnbounded(t *testing.T) {
	tr := NewTracker(NewGenerator(Normal, 9), 120, 0.002)
	ref := NewGenerator(Normal, 9)
	var all []Sample
	generated := 0.0
	dt := 1.0 / 120
	for ft := 0.003; ft < 3.0; ft += 0.009 {
		got := tr.SampleAt(ft)
		avail := ft - 0.002
		for generated <= avail {
			all = append(all, ref.Advance(dt))
			generated += dt
		}
		want := all[0]
		for _, s := range all {
			if s.TimeSec <= avail {
				want = s
			}
		}
		if got != want {
			t.Fatalf("request at %v: window returned t=%v, unbounded cache has t=%v",
				ft, got.TimeSec, want.TimeSec)
		}
	}
}

func TestDeltaMagnitudeNonNegative(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		dl := Delta{wrapF(a), wrapF(b), wrapF(c), wrapF(d), wrapF(e), wrapF(g), wrapF(h), wrapF(i)}
		return dl.Magnitude() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func wrapF(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 50)
}

// TestSetGazeNoiseTwice re-seeds a tracker's gaze noise: the first
// source goes back to the pool, the noise stream is the second seed's,
// and Release then hands back the only source the tracker holds.
func TestSetGazeNoiseTwice(t *testing.T) {
	twice := NewTracker(NewGenerator(Normal, 5), 120, 0.002)
	twice.SetGazeNoise(1.5, 11)
	twice.SetGazeNoise(1.5, 22)
	second := NewTracker(NewGenerator(Normal, 5), 120, 0.002)
	second.SetGazeNoise(1.5, 22)
	first := NewTracker(NewGenerator(Normal, 5), 120, 0.002)
	first.SetGazeNoise(1.5, 11)

	differs := false
	for ft := 0.05; ft < 1.0; ft += 0.011 {
		got := twice.SampleAt(ft)
		if want := second.SampleAt(ft); got != want {
			t.Fatalf("request at %v: gaze %v, second seed alone gives %v", ft, got.Gaze, want.Gaze)
		}
		if got != first.SampleAt(ft) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("noise stream matches the first seed's too: the test cannot tell the seeds apart")
	}

	for _, tr := range []*Tracker{twice, second, first} {
		tr.Release()
		if tr.noiseRng != nil {
			t.Fatal("Release kept the noise source")
		}
	}
}
