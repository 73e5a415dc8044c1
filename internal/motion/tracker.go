package motion

import (
	"math/rand"

	"qvr/internal/randpool"
)

// Tracker models the sensing chain between the user and the rendering
// pipeline: a head/eye tracker running at its own fixed frequency
// (state-of-the-art eye trackers reach 120 Hz, Section 7 of the paper)
// plus a sensor-data transmission latency of about 2 ms before the
// sample is visible to the renderer.
//
// The tracker decouples sensor frequency from frame frequency exactly
// as Fig. 2 of the paper shows: the pipeline reads the *latest sample
// whose arrival time precedes the frame start*, so a frame started at
// time t sees the pose sensed at or before t - TransmitLatency.
type Tracker struct {
	gen      *Generator
	hz       float64
	transmit float64 // seconds from sensing to availability
	// samples is a ring of the most recent observations. Requests
	// only move forward and generation always overshoots the requested
	// time by less than one period, so the answer is always among the
	// newest few samples; a fixed ring makes the tracker O(1) memory
	// and allocation-free no matter how long the session runs, and
	// each generator step writes straight into the slot it claims.
	// Entries keep Euler angles: only the sample SampleAt returns gets
	// its orientation built.
	samples [sampleWindow]sensed
	// newest indexes the newest entry; held counts the filled entries,
	// up to sampleWindow.
	newest, held int
	generated    float64 // timestamp of the newest generated sample

	// Gaze measurement noise: production eye trackers are accurate to
	// about one degree (Section 7 of the paper); SetGazeNoise injects
	// that error so downstream consumers see realistic gaze jitter.
	gazeNoise float64
	noiseRng  *rand.Rand
}

// DefaultTrackerHz is the sampling rate of the modeled eye/head
// tracker (HTC Vive Pro Eye class).
const DefaultTrackerHz = 120

// DefaultTransmitLatency is the modeled sensor-to-renderer
// transmission latency in seconds (2 ms, per the paper).
const DefaultTransmitLatency = 0.002

// NewTracker wraps gen with a sampling process at hz samples/second
// and the given transmission latency in seconds.
func NewTracker(gen *Generator, hz, transmitLatency float64) *Tracker {
	tr := &Tracker{}
	tr.Reset(gen, hz, transmitLatency)
	return tr
}

// Reset re-initializes the tracker in place, as NewTracker returns it:
// gaze noise is off and its source goes back to the pool, and the
// sample window empties. gen is taken as given: Reset neither resets
// it nor returns its source.
func (tr *Tracker) Reset(gen *Generator, hz, transmitLatency float64) {
	if hz <= 0 {
		hz = DefaultTrackerHz
	}
	if transmitLatency < 0 {
		transmitLatency = DefaultTransmitLatency
	}
	randpool.Put(tr.noiseRng)
	*tr = Tracker{gen: gen, hz: hz, transmit: transmitLatency}
}

// SetGazeNoise enables Gaussian gaze measurement error with the given
// standard deviation in degrees. Noise is applied once per generated
// sample and cached, so repeated reads are consistent.
func (tr *Tracker) SetGazeNoise(sigmaDeg float64, seed int64) {
	tr.gazeNoise = sigmaDeg
	randpool.Put(tr.noiseRng)
	tr.noiseRng = randpool.Get(seed)
}

// Release hands the random sources of the tracker and its generator
// back for reuse. The tracker must not be sampled afterwards; a second
// Release does nothing.
func (tr *Tracker) Release() {
	tr.gen.Release()
	randpool.Put(tr.noiseRng)
	tr.noiseRng = nil
}

// sense steps the generator by dt into the ring's next slot, applies
// the gaze noise there, and returns the slot.
func (tr *Tracker) sense(dt float64) *sensed {
	if tr.newest++; tr.newest == sampleWindow {
		tr.newest = 0
	}
	tr.held = min(tr.held+1, sampleWindow)
	s := &tr.samples[tr.newest]
	tr.gen.step(dt, s)
	if tr.gazeNoise > 0 && tr.noiseRng != nil {
		s.gaze.X += tr.noiseRng.NormFloat64() * tr.gazeNoise
		s.gaze.Y += tr.noiseRng.NormFloat64() * tr.gazeNoise
	}
	tr.generated += dt
	return s
}

// sampleWindow bounds the cached samples. After generation the newest
// sample is the only one past the requested time, so the answer is
// the newest or second-newest entry; a few extra guard against the
// cold-start fallback.
const sampleWindow = 4

// SampleAt returns the newest sample available to the renderer at
// time t (seconds), i.e. sensed at or before t - transmitLatency,
// generating trace data as needed. Requesting times may only move
// forward; a bounded window of recent samples remains cached.
func (tr *Tracker) SampleAt(t float64) Sample {
	avail := t - tr.transmit
	dt := 1 / tr.hz
	for tr.generated <= avail {
		tr.sense(dt)
	}
	if tr.held == 0 {
		// No sample is available yet (very start of the session):
		// sense one.
		return tr.sense(dt).sample()
	}
	// Binary search would be overkill: frames consume samples nearly
	// in order, so scan from the newest. When every held sample is
	// still in flight, the oldest is the answer.
	i := tr.newest
	for range tr.held - 1 {
		if tr.samples[i].t <= avail {
			break
		}
		if i == 0 {
			i = sampleWindow
		}
		i--
	}
	return tr.samples[i].sample()
}

// TransmitLatency returns the modeled sensor transmission latency in
// seconds; pipelines add it to the motion-to-photon accounting.
func (tr *Tracker) TransmitLatency() float64 { return tr.transmit }
