// Package liwc implements the Lightweight Interaction-Aware Workload
// Controller — the hardware unit that picks each frame's fovea radius
// e1 (Section 4.1 of the paper).
//
// The controller is a tabular Q-learning-style regulator built from
// four components, mirroring Fig. 9:
//
//   - a motion codec that quantizes the frame-to-frame user-motion
//     delta into a 10-bit index (6 bits of head-DoF change + 4 bits of
//     fovea-center movement);
//   - an SRAM mapping table of 2^15 half-precision entries, indexed by
//     (motion index, e1 bucket), storing the learned latency gradient
//     d(T_local)/d(e1) for that operating point;
//   - a latency predictor implementing the paper's Eq. 2 — T_local
//     from the triangle count and fovea workload share, T_remote from
//     the predicted periphery payload and the ACK-observed throughput
//     — with its scale parameters calibrated online;
//   - a runtime updater applying the reward rule
//     gradient = (1-a)*gradient' + a*Dlatency after every frame.
//
// Control objective. The paper wants the local and remote latencies
// balanced for resource utilization (Fig. 14 shows T_remote/T_local
// converging near 1) while meeting the 90 Hz budget, and it wants the
// controller to push work local when the network would otherwise be
// wasted (Table 4: the lightest app runs at e1 near 90 on slow links).
// Both behaviours follow from one rule: drive T_local toward
//
//	target = clamp(T_remote_pred, floor*budget, budget)
//
// If the remote chain is the constraint, this is latency balancing; if
// the remote chain is cheap, the local side expands to soak up the
// frame budget, shrinking network traffic and energy.
package liwc

import (
	"math"

	"qvr/internal/fp16"
	"qvr/internal/motion"
)

// Table geometry (Section 4.1/4.3: 6+4 motion bits, 2^15 entries,
// fp16 payload, delta tags of -5..+5 degrees).
const (
	HeadBits    = 6
	EyeBits     = 4
	MotionBits  = HeadBits + EyeBits
	BucketBits  = 5
	TableDepth  = 1 << (MotionBits + BucketBits) // 32768
	MaxDeltaE1  = 5.0
	e1BucketLo  = 5.0
	e1BucketHi  = 90.0
	bucketCount = 1 << BucketBits
)

// MotionIndex is the quantized motion descriptor.
type MotionIndex uint16

// EncodeMotion quantizes a motion delta into the 10-bit index: one bit
// per head degree of freedom (significant change or not) and two
// sign/magnitude bits per gaze axis.
func EncodeMotion(d motion.Delta) MotionIndex {
	var idx MotionIndex
	// Head bits: yaw, pitch, roll beyond 0.5 degrees; x, y, z beyond
	// 5 mm between frames.
	headThresholds := [6]struct {
		v, th float64
	}{
		{d.DYaw, 0.5}, {d.DPitch, 0.5}, {d.DRoll, 0.5},
		{d.DX, 0.005}, {d.DY, 0.005}, {d.DZ, 0.005},
	}
	for i, h := range headThresholds {
		if math.Abs(h.v) > h.th {
			idx |= 1 << i
		}
	}
	// Eye bits: per axis, 0 = still, 1 = small move, 2 = saccade-left/
	// down, 3 = saccade-right/up (2 bits each).
	quantGaze := func(v float64) MotionIndex {
		switch {
		case math.Abs(v) <= 0.5:
			return 0
		case math.Abs(v) <= 3:
			return 1
		case v < 0:
			return 2
		default:
			return 3
		}
	}
	idx |= quantGaze(d.DGazeX) << HeadBits
	idx |= quantGaze(d.DGazeY) << (HeadBits + 2)
	return idx
}

// e1Bucket maps an eccentricity to its 5-bit table bucket.
func e1Bucket(e1 float64) int {
	if e1 < e1BucketLo {
		e1 = e1BucketLo
	}
	if e1 > e1BucketHi {
		e1 = e1BucketHi
	}
	b := int((e1 - e1BucketLo) / (e1BucketHi - e1BucketLo) * float64(bucketCount))
	if b >= bucketCount {
		b = bucketCount - 1
	}
	return b
}

// tableIndex combines motion and eccentricity into the SRAM address.
func tableIndex(m MotionIndex, e1 float64) int {
	return int(m)<<BucketBits | e1Bucket(e1)
}

// Geometry abstracts the display/foveation math the controller needs:
// how much of the frame workload a fovea of radius e1 captures, and
// how many periphery pixels remain for the remote side. In hardware
// these are small fixed-function evaluations; here they are provided
// by the foveation partitioner.
type Geometry interface {
	// FoveaShare returns the expected fraction of frame rendering work
	// inside the fovea at radius e1 for the current gaze.
	FoveaShare(e1 float64) float64
	// PeripheryPixels returns the transmitted periphery pixel count at
	// radius e1 for the current gaze.
	PeripheryPixels(e1 float64) int
}

// Config parameterizes the controller.
type Config struct {
	// BudgetSeconds is the per-frame latency budget (11.1 ms for 90 Hz).
	BudgetSeconds float64
	// Alpha is the reward-update rate for the gradient table.
	Alpha float64
	// TargetFloor is the lower bound of the local-latency target as a
	// fraction of the budget (push work local when the network is idle).
	TargetFloor float64
	// InitialE1 seeds the eccentricity (the paper starts at 5 degrees).
	InitialE1 float64
	// InitialGradient seeds the table in milliseconds of local-latency
	// change per degree of eccentricity.
	InitialGradient float64
}

// DefaultConfig matches the evaluation setup.
func DefaultConfig() Config {
	return Config{
		BudgetSeconds:   1.0 / 90,
		Alpha:           0.30,
		TargetFloor:     0.95,
		InitialE1:       5,
		InitialGradient: 0.35,
	}
}

// Controller is the LIWC instance. It is not safe for concurrent use;
// one controller serves one rendering pipeline.
type Controller struct {
	cfg Config

	// The SRAM gradient table, stored as raw fp16 exactly as the
	// hardware would (quantization effects included). The hardware
	// powers on with every entry at the seed gradient and a session
	// rewrites only the entries its motion patterns actually visit, so
	// the model keeps a sparse overlay over the uniform seed value
	// instead of materializing all 2^15 entries per session — the
	// read/write values are bit-identical to the dense array, at
	// kilobytes instead of 64 KB for each of a fleet's sessions.
	table    map[int32]fp16.Bits
	seedBits fp16.Bits

	e1 float64

	// Latency-predictor parameters, calibrated online by the runtime
	// updater (Eq. 2's P(GPUm) and the payload and overhead scales).
	secPerTriShare float64 // T_local ~= secPerTriShare * triangles * share
	bytesPerPixel  float64 // payload ~= bytesPerPixel * peripheryPixels
	remoteOverhead float64 // fixed seconds of the remote chain

	// Last decision, pending measurement.
	lastIndex   int
	lastDelta   float64
	lastPredLoc float64
	lastTput    float64

	decisions int64
}

// New creates a controller.
func New(cfg Config) *Controller {
	c := &Controller{}
	c.Reset(cfg)
	return c
}

// Reset re-initializes the controller in place, as New returns it: the
// learned table overlay is cleared but keeps its storage, so a reused
// controller powers on at the seed gradient without reallocating.
func (c *Controller) Reset(cfg Config) {
	clear(c.table)
	*c = Controller{
		cfg:            cfg,
		table:          c.table,
		e1:             max(cfg.InitialE1, e1BucketLo),
		seedBits:       fp16.FromFloat64(cfg.InitialGradient),
		secPerTriShare: 25e-9, // ~25 ns per triangle-share unit, refined online
		bytesPerPixel:  0.09,  // compressed payload density, refined online
		remoteOverhead: 0.0015,
	}
}

// entry reads one SRAM table cell: the learned overlay value if the
// cell was ever written, else the power-on seed gradient.
func (c *Controller) entry(idx int) fp16.Bits {
	if v, ok := c.table[int32(idx)]; ok {
		return v
	}
	return c.seedBits
}

// setEntry writes one SRAM table cell, allocating the overlay lazily
// so sessions that never learn (or never run the controller) cost
// nothing.
func (c *Controller) setEntry(idx int, v fp16.Bits) {
	if c.table == nil {
		c.table = make(map[int32]fp16.Bits, 64)
	}
	c.table[int32(idx)] = v
}

// E1 returns the current eccentricity.
func (c *Controller) E1() float64 { return c.e1 }

// Decisions returns the number of Plan calls.
func (c *Controller) Decisions() int64 { return c.decisions }

// Decision is the controller's per-frame output.
type Decision struct {
	// E1 is the chosen fovea radius in degrees.
	E1 float64
	// DeltaApplied is the integer eccentricity step taken.
	DeltaApplied float64
	// PredLocalSeconds and PredRemoteSeconds are the Eq. 2 predictions
	// at the chosen eccentricity.
	PredLocalSeconds, PredRemoteSeconds float64
	// TargetSeconds is the local-latency target used.
	TargetSeconds float64
	// MotionIdx is the quantized motion index consulted.
	MotionIdx MotionIndex
}

// PredictLocal evaluates Eq. 2's local half at eccentricity e1.
func (c *Controller) PredictLocal(triangles int, g Geometry, e1 float64) float64 {
	return c.secPerTriShare * float64(triangles) * g.FoveaShare(e1)
}

// PredictRemote evaluates Eq. 2's remote half at eccentricity e1 using
// the ACK-observed throughput in bits per second.
func (c *Controller) PredictRemote(g Geometry, e1 float64, throughputBps float64) float64 {
	if throughputBps < 1e3 {
		throughputBps = 1e3
	}
	payload := c.bytesPerPixel * float64(g.PeripheryPixels(e1))
	return payload*8/throughputBps + c.remoteOverhead
}

// Plan chooses the eccentricity for the next frame from the quantized
// motion delta, the monitored triangle count, the foveation geometry,
// and the ACK-observed network throughput. This is the hardware fast
// path: no rendering results are waited on (Fig. 4-B).
func (c *Controller) Plan(d motion.Delta, triangles int, g Geometry, throughputBps float64) Decision {
	c.decisions++
	if throughputBps < 1e3 {
		throughputBps = 1e3
	}
	c.lastTput = throughputBps
	mIdx := EncodeMotion(d)

	predLoc := c.PredictLocal(triangles, g, c.e1)
	predRem := c.PredictRemote(g, c.e1, throughputBps)

	// Local-latency target: balance against the remote chain, with a
	// floor that fills the frame budget when the network is cheap.
	// When the remote chain exceeds the budget (slow links), the
	// target follows it upward: the frame rate goal is unreachable, so
	// minimizing max(T_local, T_remote) — true balance — is optimal,
	// and the controller pushes work local exactly as Table 4 shows
	// for 4G LTE. A cap keeps a mis-calibrated predictor from running
	// away.
	target := predRem
	floor := c.cfg.TargetFloor * c.cfg.BudgetSeconds
	if target < floor {
		target = floor
	}
	if cap := 3 * c.cfg.BudgetSeconds; target > cap {
		target = cap
	}

	// Gradient lookup: learned ms-per-degree slope for this motion
	// pattern at this operating point.
	idx := tableIndex(mIdx, c.e1)
	slope := c.entry(idx).Float64() // ms per degree
	if slope < 0.02 {
		slope = 0.02 // degenerate entries cannot stall the controller
	}

	errMs := (target - predLoc) * 1000
	delta := errMs / slope
	if delta > MaxDeltaE1 {
		delta = MaxDeltaE1
	}
	if delta < -MaxDeltaE1 {
		delta = -MaxDeltaE1
	}
	// Integer delta tags, as in the hardware design.
	delta = math.Round(delta)

	newE1 := c.e1 + delta
	if newE1 < e1BucketLo {
		newE1 = e1BucketLo
	}
	if newE1 > e1BucketHi {
		newE1 = e1BucketHi
	}
	delta = newE1 - c.e1
	c.e1 = newE1

	c.lastIndex = idx
	c.lastDelta = delta
	c.lastPredLoc = c.PredictLocal(triangles, g, newE1)

	return Decision{
		E1:                newE1,
		DeltaApplied:      delta,
		PredLocalSeconds:  c.lastPredLoc,
		PredRemoteSeconds: c.PredictRemote(g, newE1, throughputBps),
		TargetSeconds:     target,
		MotionIdx:         mIdx,
	}
}

// Measurement feeds measured frame results back to the runtime updater.
type Measurement struct {
	// LocalSeconds is the measured local render time.
	LocalSeconds float64
	// RemoteChainSeconds is the measured remote path time (request to
	// decoded frame).
	RemoteChainSeconds float64
	// Triangles is the rendered triangle count.
	Triangles int
	// FoveaShare is the workload share that was rendered locally.
	FoveaShare float64
	// PeripheryPixels and PeripheryBytes describe the transmitted
	// payload (bytes after compression).
	PeripheryPixels int
	PeripheryBytes  int
	// PrevLocalSeconds is the previous frame's measured local time,
	// used to realize the gradient observation.
	PrevLocalSeconds float64
}

// Observe runs the runtime updater: it refines the latency-predictor
// parameters from hardware-observable quantities and applies the
// reward update to the consulted gradient entry. The paper executes
// this in parallel with composition and display, off the critical path.
func (c *Controller) Observe(m Measurement) {
	const beta = 0.2

	// Calibrate T_local scale: seconds per (triangle x share).
	if m.Triangles > 0 && m.FoveaShare > 1e-6 && m.LocalSeconds > 0 {
		k := m.LocalSeconds / (float64(m.Triangles) * m.FoveaShare)
		c.secPerTriShare = (1-beta)*c.secPerTriShare + beta*k
	}

	// Calibrate payload density and remote fixed overhead.
	if m.PeripheryPixels > 0 && m.PeripheryBytes > 0 {
		bpp := float64(m.PeripheryBytes) / float64(m.PeripheryPixels)
		c.bytesPerPixel = (1-beta)*c.bytesPerPixel + beta*bpp
	}
	if m.RemoteChainSeconds > 0 && c.lastTput > 0 {
		// Whatever the payload-over-throughput model does not explain
		// is fixed overhead (propagation, codec tails): track the
		// residual. This is how a slow link's round-trip cost reaches
		// the balance target even when payloads shrink.
		explained := float64(m.PeripheryBytes*8) / c.lastTput
		resid := m.RemoteChainSeconds - explained
		if resid < 0 {
			resid = 0
		}
		if resid > 0.05 {
			resid = 0.05
		}
		c.remoteOverhead = (1-beta)*c.remoteOverhead + beta*resid
	}

	// Reward update for the gradient entry consulted by the last Plan:
	// gradient = (1-a)*gradient' + a*Dlatency, where Dlatency is the
	// observed local-latency change per degree actually applied.
	if math.Abs(c.lastDelta) >= 1 && m.PrevLocalSeconds > 0 && m.LocalSeconds > 0 {
		observed := (m.LocalSeconds - m.PrevLocalSeconds) * 1000 / c.lastDelta
		// The slope of T_local in e1 is physically positive; reject
		// sign noise from workload fluctuation but keep magnitude.
		observed = math.Abs(observed)
		if observed > 5 {
			observed = 5 // saturate against measurement spikes
		}
		old := c.entry(c.lastIndex).Float64()
		next := (1-c.cfg.Alpha)*old + c.cfg.Alpha*observed
		c.setEntry(c.lastIndex, fp16.FromFloat64(next))
	}
}

// TableBytes returns the SRAM footprint in bytes (Section 4.3 sizes it
// at ~64 KB: 32768 x 16-bit entries).
func TableBytes() int { return TableDepth * 2 }
