package motion

import (
	"math"
	"math/rand"
	"testing"

	"qvr/internal/vec"
)

// refGenerator is Generator as it was before steps kept Euler angles
// and their constants: every Advance recomputes the OU decay, its
// noise scale and sqrt(dt) per use, and builds the orientation.
type refGenerator struct {
	profile Profile
	rng     *rand.Rand

	t float64

	euler     [3]float64
	angVel    [3]float64
	pos       vec.Vec3
	turnUntil float64
	turnVel   [3]float64

	gaze        vec.Vec2
	gazeTarget  vec.Vec2
	nextSaccade float64

	dist       float64
	distTarget float64
	distSpeed  float64
}

func newRefGenerator(p Profile, seed int64) *refGenerator {
	g := &refGenerator{
		profile:    p,
		rng:        rand.New(rand.NewSource(seed)),
		dist:       p.MaxDist,
		distTarget: p.MaxDist,
	}
	g.nextSaccade = g.expDur(p.FixationMean)
	return g
}

func (g *refGenerator) expDur(mean float64) float64 {
	return g.t + g.rng.ExpFloat64()*mean
}

func (g *refGenerator) Advance(dt float64) Sample {
	if dt <= 0 {
		dt = 1e-4
	}
	p := g.profile
	g.t += dt

	if g.t >= g.turnUntil && g.rng.Float64() < p.TurnRate*dt {
		dur := 0.2 + 0.3*g.rng.Float64()
		g.turnUntil = g.t + dur
		dir := 1.0
		if g.rng.Float64() < 0.5 {
			dir = -1
		}
		g.turnVel = [3]float64{dir * p.TurnSpeed, 0, 0}
		if g.rng.Float64() < 0.3 {
			g.turnVel[1] = (g.rng.Float64() - 0.5) * p.TurnSpeed
		}
	}

	for i := 0; i < 3; i++ {
		decay := math.Exp(-dt / p.AngTau)
		noise := p.AngSigma * math.Sqrt(1-decay*decay) * g.rng.NormFloat64()
		g.angVel[i] = g.angVel[i]*decay + noise
		v := g.angVel[i]
		if g.t < g.turnUntil {
			v += g.turnVel[i]
		}
		g.euler[i] += v * dt
	}
	g.euler[1] = clamp(g.euler[1], rad(-70), rad(70))
	g.euler[2] = clamp(g.euler[2], rad(-25), rad(25))

	g.pos = g.pos.Add(vec.Vec3{
		X: g.rng.NormFloat64() * p.PosSigma * math.Sqrt(dt),
		Y: g.rng.NormFloat64() * p.PosSigma * 0.3 * math.Sqrt(dt),
		Z: g.rng.NormFloat64() * p.PosSigma * math.Sqrt(dt),
	})

	if g.t >= g.nextSaccade {
		amp := g.rng.ExpFloat64() * p.SaccadeMeanDeg
		if amp > 30 {
			amp = 30
		}
		theta := g.rng.Float64() * 2 * math.Pi
		g.gazeTarget = vec.Vec2{
			X: clamp(g.gaze.X+amp*math.Cos(theta), -40, 40),
			Y: clamp(g.gaze.Y+amp*math.Sin(theta), -30, 30),
		}
		g.gaze = g.gazeTarget
		g.nextSaccade = g.expDur(p.FixationMean)
	} else {
		g.gaze.X = clamp(g.gaze.X+g.rng.NormFloat64()*p.TremorDeg, -40, 40)
		g.gaze.Y = clamp(g.gaze.Y+g.rng.NormFloat64()*p.TremorDeg, -30, 30)
	}

	if g.rng.Float64() < p.ApproachRate*dt {
		if g.distTarget > (p.MinDist+p.MaxDist)/2 {
			g.distTarget = p.MinDist + g.rng.Float64()*(p.MaxDist-p.MinDist)*0.3
		} else {
			g.distTarget = p.MaxDist * (0.7 + 0.3*g.rng.Float64())
		}
		g.distSpeed = 0.5 + g.rng.Float64()*1.5
	}
	if g.dist < g.distTarget {
		g.dist = math.Min(g.dist+g.distSpeed*dt, g.distTarget)
	} else {
		g.dist = math.Max(g.dist-g.distSpeed*dt, g.distTarget)
	}

	return Sample{
		TimeSec: g.t,
		Head: Pose{
			Position:    g.pos,
			Orientation: vec.FromEuler(g.euler[0], g.euler[1], g.euler[2]),
		},
		Gaze:         g.gaze,
		InteractDist: g.dist,
	}
}

// refTracker is Tracker as it was before its window kept Euler angles:
// every generated sample is built eagerly by refGenerator.Advance.
type refTracker struct {
	gen       *refGenerator
	hz        float64
	transmit  float64
	samples   []Sample
	generated float64
	gazeNoise float64
	noiseRng  *rand.Rand
}

func newRefTracker(gen *refGenerator, hz, transmit, noise float64, noiseSeed int64) *refTracker {
	tr := &refTracker{gen: gen, hz: hz, transmit: transmit}
	if noise > 0 {
		tr.gazeNoise, tr.noiseRng = noise, rand.New(rand.NewSource(noiseSeed))
	}
	return tr
}

func (tr *refTracker) perturb(s Sample) Sample {
	if tr.gazeNoise <= 0 || tr.noiseRng == nil {
		return s
	}
	s.Gaze.X += tr.noiseRng.NormFloat64() * tr.gazeNoise
	s.Gaze.Y += tr.noiseRng.NormFloat64() * tr.gazeNoise
	return s
}

func (tr *refTracker) SampleAt(t float64) Sample {
	avail := t - tr.transmit
	dt := 1 / tr.hz
	for tr.generated <= avail {
		tr.push(tr.perturb(tr.gen.Advance(dt)))
		tr.generated += dt
	}
	for i := len(tr.samples) - 1; i >= 0; i-- {
		if tr.samples[i].TimeSec <= avail {
			return tr.samples[i]
		}
	}
	if len(tr.samples) > 0 {
		return tr.samples[0]
	}
	s := tr.perturb(tr.gen.Advance(dt))
	tr.push(s)
	tr.generated += dt
	return s
}

func (tr *refTracker) push(s Sample) {
	if len(tr.samples) == sampleWindow {
		copy(tr.samples, tr.samples[1:])
		tr.samples[sampleWindow-1] = s
		return
	}
	tr.samples = append(tr.samples, s)
}

// sampleBits flattens a Sample into its IEEE-754 words, so -0 and +0
// (or two NaN payloads) differ.
func sampleBits(s Sample) [11]uint64 {
	f := [11]float64{
		s.TimeSec,
		s.Head.Position.X, s.Head.Position.Y, s.Head.Position.Z,
		s.Head.Orientation.W, s.Head.Orientation.X, s.Head.Orientation.Y, s.Head.Orientation.Z,
		s.Gaze.X, s.Gaze.Y, s.InteractDist,
	}
	var b [11]uint64
	for i, v := range f {
		b[i] = math.Float64bits(v)
	}
	return b
}

// frameTimes returns a monotone request sequence of n frame times
// starting at start: mostly 1/90 s frames with jitter, some repeated
// request times, and contended gaps of 80 ms to 1.5 s.
func frameTimes(rng *rand.Rand, start float64, n int) []float64 {
	out := make([]float64, 0, n)
	ft := start
	for len(out) < n {
		switch k := rng.Intn(10); {
		case k < 5:
			ft += 1.0/90 + (rng.Float64()-0.5)*0.004
		case k < 7:
			// A repeated request: same time again.
		case k < 9:
			ft += 0.08
		default:
			ft += 0.08 + 1.4*rng.Float64()
		}
		out = append(out, ft)
	}
	return out
}

// TestTrackerMatchesEagerReference holds the tracker's lazily built
// samples to the eager tracker bit for bit: orientation, gaze,
// position, distance and time, over seeds, profiles, tracker rates,
// gaze noise on and off, transmit latencies, cold starts and request
// sequences with repeated times and long contended gaps.
func TestTrackerMatchesEagerReference(t *testing.T) {
	profiles := []Profile{Calm, Normal, Intense}
	for seed := int64(1); seed <= 6; seed++ {
		for _, hz := range []float64{60, 90, 120, 1000} {
			for _, noise := range []float64{0, 1.5} {
				for _, transmit := range []float64{DefaultTransmitLatency, 0} {
					p := profiles[int(seed)%len(profiles)]
					rng := rand.New(rand.NewSource(seed*1000 + int64(hz)))
					// Cold starts at, before and after the transmit latency.
					start := []float64{0, 0.001, 0.05}[rng.Intn(3)]
					got := NewTracker(NewGenerator(p, seed), hz, transmit)
					if noise > 0 {
						got.SetGazeNoise(noise, seed*31+11)
					}
					want := newRefTracker(newRefGenerator(p, seed), hz, transmit, noise, seed*31+11)
					for i, ft := range frameTimes(rng, start, 400) {
						g, w := got.SampleAt(ft), want.SampleAt(ft)
						if sampleBits(g) != sampleBits(w) {
							t.Fatalf("seed %d, %v Hz, noise %v, transmit %v, request %d at %v: got %+v, eager reference %+v",
								seed, hz, noise, transmit, i, ft, g, w)
						}
					}
				}
			}
		}
	}
}

// TestGeneratorMatchesEagerReference holds a bare Generator to the
// eager reference bit for bit, with dt alternating between 1/30 and
// 1/120 s as the live client steps it, a run of non-positive dt, and a
// Reset onto another profile at an unchanged dt, which must not keep
// the old profile's step constants.
func TestGeneratorMatchesEagerReference(t *testing.T) {
	check := func(name string, got *Generator, want *refGenerator, dts []float64) {
		t.Helper()
		for i, dt := range dts {
			g, w := got.Advance(dt), want.Advance(dt)
			if sampleBits(g) != sampleBits(w) {
				t.Fatalf("%s: step %d (dt %v): got %+v, eager reference %+v", name, i, dt, g, w)
			}
		}
	}
	var alternating, mixed []float64
	for i := 0; i < 2000; i++ {
		alternating = append(alternating, []float64{1.0 / 30, 1.0 / 120}[i%2])
		mixed = append(mixed, []float64{1.0 / 90, 1.0 / 90, 0, -1, 1.0 / 1000}[i%5])
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []Profile{Calm, Normal, Intense} {
			check(p.Name+" alternating", NewGenerator(p, seed), newRefGenerator(p, seed), alternating)
			check(p.Name+" mixed", NewGenerator(p, seed), newRefGenerator(p, seed), mixed)
		}
	}

	// The last step before the Reset and the first after it share dt.
	g := NewGenerator(Calm, 3)
	check("calm before reset", g, newRefGenerator(Calm, 3), alternating[:51])
	g.Reset(Intense, 5)
	check("intense after reset", g, newRefGenerator(Intense, 5), alternating[:50])
}

func TestSampleAtAllocatesNothing(t *testing.T) {
	tr := NewTracker(NewGenerator(Normal, 1), DefaultTrackerHz, DefaultTransmitLatency)
	tr.SetGazeNoise(1, 2)
	ft := 0.1
	tr.SampleAt(ft) // the window's backing array
	var sink Sample
	allocs := testing.AllocsPerRun(200, func() {
		ft += 0.08
		sink = tr.SampleAt(ft)
	})
	if allocs != 0 {
		t.Errorf("SampleAt allocates %v times per call, want 0", allocs)
	}
	_ = sink
}

// BenchmarkTrackerSampleAt requests frames 80 ms apart from a 120 Hz
// tracker: the contended capacity-probe pattern, where each frame
// steps the generator about ten times and reads one sample.
func BenchmarkTrackerSampleAt(b *testing.B) {
	tr := NewTracker(NewGenerator(Normal, 1), DefaultTrackerHz, DefaultTransmitLatency)
	ft := 0.0
	var sink Sample
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ft += 0.08
		sink = tr.SampleAt(ft)
	}
	_ = sink
}
