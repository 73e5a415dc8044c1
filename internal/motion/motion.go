// Package motion models the realtime user inputs that drive a VR
// session: 6-DoF head movement, gaze (fovea center) movement, and
// object interaction events.
//
// The paper's LIWC controller consumes quantized *deltas* of this
// signal — "6 bits for degrees of freedom changes on HMD and 4 bits
// for the fovea center movement" (Section 4.1) — and correlates them
// with scene-complexity change. The substitute for a physical HTC Vive
// Pro Eye tracker is a statistically plausible generative model:
//
//   - Head: an Ornstein-Uhlenbeck angular-velocity process per Euler
//     axis (smooth wandering with occasional rapid turns), plus a slow
//     positional walk. VR users mostly rotate and only slightly
//     translate, which the default parameters reflect.
//   - Eyes: an alternating fixation/saccade process. Fixations hold the
//     gaze (with tremor) for an exponentially distributed dwell time;
//     saccades jump it several degrees instantaneously, matching the
//     ballistic nature of real eye movement.
//   - Interaction: a proximity process modeling the user approaching
//     and leaving interactive objects (the "closer to the tree, the
//     more details" effect of Fig. 5).
//
// All randomness is seeded; identical seeds reproduce identical traces.
package motion

import (
	"math"
	"math/rand"

	"qvr/internal/randpool"
	"qvr/internal/vec"
)

// Pose is a 6-DoF head pose.
type Pose struct {
	Position    vec.Vec3
	Orientation vec.Quat
}

// Sample is one tracker observation.
type Sample struct {
	TimeSec float64 // sample timestamp in seconds
	Head    Pose
	// Gaze is the fovea center in visual degrees relative to the
	// display center. (0,0) looks straight ahead; the HMD field of
	// view spans roughly +/-55 degrees horizontally per eye.
	Gaze vec.Vec2
	// InteractDist is the distance in meters to the nearest
	// interactive object; small distances mean high close-view detail.
	InteractDist float64
}

// Delta captures the frame-to-frame change of user motion: exactly the
// information the LIWC motion codec quantizes.
type Delta struct {
	// Head rotation deltas in degrees.
	DYaw, DPitch, DRoll float64
	// Head translation deltas in meters.
	DX, DY, DZ float64
	// Gaze (fovea center) movement in degrees.
	DGazeX, DGazeY float64
}

// Magnitude returns a scalar intensity for the delta, used by scene
// dynamics to couple workload change to motion.
func (d Delta) Magnitude() float64 {
	rot := math.Sqrt(d.DYaw*d.DYaw + d.DPitch*d.DPitch + d.DRoll*d.DRoll)
	trans := math.Sqrt(d.DX*d.DX + d.DY*d.DY + d.DZ*d.DZ)
	gaze := math.Sqrt(d.DGazeX*d.DGazeX + d.DGazeY*d.DGazeY)
	return rot + 20*trans + 0.5*gaze
}

// Sub computes the delta from sample a to sample b.
func Sub(a, b Sample) Delta {
	ea := eulerOf(a.Head.Orientation)
	eb := eulerOf(b.Head.Orientation)
	return Delta{
		DYaw:   deg(angleDiff(eb[0], ea[0])),
		DPitch: deg(angleDiff(eb[1], ea[1])),
		DRoll:  deg(angleDiff(eb[2], ea[2])),
		DX:     b.Head.Position.X - a.Head.Position.X,
		DY:     b.Head.Position.Y - a.Head.Position.Y,
		DZ:     b.Head.Position.Z - a.Head.Position.Z,
		DGazeX: b.Gaze.X - a.Gaze.X,
		DGazeY: b.Gaze.Y - a.Gaze.Y,
	}
}

func deg(rad float64) float64 { return rad * 180 / math.Pi }
func rad(deg float64) float64 { return deg * math.Pi / 180 }

// angleDiff returns the signed smallest difference a-b wrapped to
// (-pi, pi].
func angleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// eulerOf extracts yaw/pitch/roll from a quaternion using the same
// convention as vec.FromEuler.
func eulerOf(q vec.Quat) [3]float64 {
	// yaw (Y), pitch (X), roll (Z)
	w, x, y, z := q.W, q.X, q.Y, q.Z
	// pitch
	sinp := 2 * (w*x - y*z)
	var pitch float64
	if math.Abs(sinp) >= 1 {
		pitch = math.Copysign(math.Pi/2, sinp)
	} else {
		pitch = math.Asin(sinp)
	}
	yaw := math.Atan2(2*(w*y+x*z), 1-2*(x*x+y*y))
	roll := math.Atan2(2*(w*z+x*y), 1-2*(x*x+z*z))
	return [3]float64{yaw, pitch, roll}
}

// Profile parameterizes how energetic the simulated user is.
type Profile struct {
	Name string

	// Head angular velocity OU process (per axis, rad/s).
	AngSigma float64 // stationary std dev of angular velocity
	AngTau   float64 // mean-reversion time constant, seconds

	// Rapid-turn process: Poisson rate (per second) and burst velocity.
	TurnRate  float64
	TurnSpeed float64 // rad/s during a burst

	// Positional walk std dev (m/s).
	PosSigma float64

	// Eye model.
	FixationMean   float64 // mean fixation duration, seconds
	SaccadeMeanDeg float64 // mean saccade amplitude, degrees
	TremorDeg      float64 // fixation tremor std dev, degrees

	// Interaction proximity process.
	ApproachRate float64 // per-second probability of starting approach
	MinDist      float64 // closest approach distance, m
	MaxDist      float64 // resting distance, m
}

// Predefined user profiles. Calm users produce small motion deltas and
// slowly varying workloads; Intense users exercise the full dynamic
// range that motivates runtime eccentricity control.
var (
	Calm = Profile{
		Name:     "calm",
		AngSigma: 0.25, AngTau: 0.8,
		TurnRate: 0.05, TurnSpeed: 1.0,
		PosSigma:       0.02,
		FixationMean:   0.45,
		SaccadeMeanDeg: 4,
		TremorDeg:      0.08,
		ApproachRate:   0.05, MinDist: 1.5, MaxDist: 6,
	}
	Normal = Profile{
		Name:     "normal",
		AngSigma: 0.6, AngTau: 0.5,
		TurnRate: 0.2, TurnSpeed: 2.2,
		PosSigma:       0.05,
		FixationMean:   0.3,
		SaccadeMeanDeg: 7,
		TremorDeg:      0.12,
		ApproachRate:   0.12, MinDist: 0.8, MaxDist: 5,
	}
	Intense = Profile{
		Name:     "intense",
		AngSigma: 1.2, AngTau: 0.3,
		TurnRate: 0.6, TurnSpeed: 4.0,
		PosSigma:       0.12,
		FixationMean:   0.2,
		SaccadeMeanDeg: 11,
		TremorDeg:      0.2,
		ApproachRate:   0.3, MinDist: 0.4, MaxDist: 4,
	}
)

// Generator produces a continuous motion trace, sampled on demand.
type Generator struct {
	profile Profile
	rng     *rand.Rand

	t float64 // current time, seconds

	// Head state.
	euler     [3]float64 // yaw, pitch, roll (rad)
	angVel    [3]float64 // rad/s
	pos       vec.Vec3
	turnUntil float64
	turnVel   [3]float64

	// Eye state.
	gaze        vec.Vec2
	gazeTarget  vec.Vec2
	nextSaccade float64

	// Interaction state.
	dist       float64
	distTarget float64
	distSpeed  float64

	// Step constants for the last step's dt, taken when dt changes:
	// the OU decay and noise scale, and sqrt(dt) for the positional
	// walk. stepDT is 0 until the first step.
	stepDT, decay, angNoise, sqrtDT float64
}

// sensed is one generator step's observation before its orientation
// is built: the head's Euler angles stand in for the quaternion, which
// sample makes from them only for an observation that is read.
type sensed struct {
	t     float64
	euler [3]float64 // yaw, pitch, roll (rad)
	pos   vec.Vec3
	gaze  vec.Vec2
	dist  float64
}

// sample builds the tracker sample s stands for.
func (s *sensed) sample() Sample {
	return Sample{
		TimeSec: s.t,
		Head: Pose{
			Position:    s.pos,
			Orientation: vec.FromEuler(s.euler[0], s.euler[1], s.euler[2]),
		},
		Gaze:         s.gaze,
		InteractDist: s.dist,
	}
}

// NewGenerator creates a seeded generator for the given profile.
func NewGenerator(p Profile, seed int64) *Generator {
	g := &Generator{}
	g.Reset(p, seed)
	return g
}

// Reset re-initializes the generator in place, as NewGenerator returns
// it: any random source it still holds goes back to the pool, and a
// freshly seeded one comes out, so the trace is the same as a new
// generator's.
func (g *Generator) Reset(p Profile, seed int64) {
	randpool.Put(g.rng)
	*g = Generator{
		profile:    p,
		rng:        randpool.Get(seed),
		dist:       p.MaxDist,
		distTarget: p.MaxDist,
	}
	g.nextSaccade = g.expDur(p.FixationMean)
}

// Release hands the generator's random source back for reuse by a
// later generator. The generator must not advance afterwards; a second
// Release does nothing.
func (g *Generator) Release() {
	randpool.Put(g.rng)
	g.rng = nil
}

func (g *Generator) expDur(mean float64) float64 {
	return g.t + g.rng.ExpFloat64()*mean
}

// Advance moves the model forward by dt seconds and returns the new
// tracker sample. dt must be positive.
func (g *Generator) Advance(dt float64) Sample {
	var s sensed
	g.step(dt, &s)
	return s.sample()
}

// step moves the model forward by dt seconds and writes the new
// observation to s, its orientation not yet built.
func (g *Generator) step(dt float64, s *sensed) {
	if dt <= 0 {
		dt = 1e-4
	}
	p := &g.profile
	g.t += dt
	if dt != g.stepDT {
		g.stepDT = dt
		g.decay = math.Exp(-dt / p.AngTau)
		g.angNoise = p.AngSigma * math.Sqrt(1-g.decay*g.decay)
		g.sqrtDT = math.Sqrt(dt)
	}

	// Rapid-turn bursts arrive as a Poisson process.
	if g.t >= g.turnUntil && g.rng.Float64() < p.TurnRate*dt {
		dur := 0.2 + 0.3*g.rng.Float64()
		g.turnUntil = g.t + dur
		dir := 1.0
		if g.rng.Float64() < 0.5 {
			dir = -1
		}
		g.turnVel = [3]float64{dir * p.TurnSpeed, 0, 0}
		if g.rng.Float64() < 0.3 { // some turns include pitch
			g.turnVel[1] = (g.rng.Float64() - 0.5) * p.TurnSpeed
		}
	}

	// OU angular velocity update: dv = -v/tau dt + sigma*sqrt(2dt/tau) dW.
	for i := 0; i < 3; i++ {
		noise := g.angNoise * g.rng.NormFloat64()
		g.angVel[i] = g.angVel[i]*g.decay + noise
		v := g.angVel[i]
		if g.t < g.turnUntil {
			v += g.turnVel[i]
		}
		g.euler[i] += v * dt
	}
	// Pitch is mechanically limited by the neck.
	g.euler[1] = clamp(g.euler[1], rad(-70), rad(70))
	// Roll stays small.
	g.euler[2] = clamp(g.euler[2], rad(-25), rad(25))

	// Positional drift.
	g.pos = g.pos.Add(vec.Vec3{
		X: g.rng.NormFloat64() * p.PosSigma * g.sqrtDT,
		Y: g.rng.NormFloat64() * p.PosSigma * 0.3 * g.sqrtDT,
		Z: g.rng.NormFloat64() * p.PosSigma * g.sqrtDT,
	})

	// Eye: saccade or fixation.
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
		// Saccades complete within ~30-80ms; we model them as
		// instantaneous at the next sample, matching tracker output.
		g.gaze = g.gazeTarget
		g.nextSaccade = g.expDur(p.FixationMean)
	} else {
		// Fixation tremor.
		g.gaze.X = clamp(g.gaze.X+g.rng.NormFloat64()*p.TremorDeg, -40, 40)
		g.gaze.Y = clamp(g.gaze.Y+g.rng.NormFloat64()*p.TremorDeg, -30, 30)
	}

	// Interaction distance: approach/retreat episodes.
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

	*s = sensed{t: g.t, euler: g.euler, pos: g.pos, gaze: g.gaze, dist: g.dist}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
