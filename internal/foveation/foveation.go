// Package foveation implements the vision-perception model at the heart
// of Q-VR's software layer (Section 3 of the paper).
//
// Human visual acuity falls off with eccentricity — the angular distance
// from the gaze center. Foveated rendering exploits this by rendering a
// small foveal disc at full resolution and the periphery at resolutions
// chosen so the *minimum angle of resolution* (MAR) the display presents
// never exceeds what the eye can resolve at that eccentricity:
//
//	MAR(e) = m*e + w0        (linear MAR model, Guenter et al. 2012)
//
// Q-VR reorganizes the classic three-layer decomposition (fovea, middle,
// outer) into a *local* fovea rendered on the mobile GPU at native
// resolution and a *remote* periphery rendered server-side at
// MAR-constrained reduced resolution, then streamed back. The fovea
// radius e1 becomes the collaborative workload-partition knob, and the
// middle/outer split radius *e2 is chosen per frame to minimize the
// transmitted periphery payload (Eq. 1 in the paper).
package foveation

import (
	"errors"
	"math"
)

// MARModel is the linear minimum-angle-of-resolution model. Angles are
// in degrees; MAR is in degrees per cycle.
type MARModel struct {
	// Slope is the MAR increase per degree of eccentricity. User
	// studies place it around 0.022-0.034; the paper adopts the
	// Guenter et al. parameters.
	Slope float64
	// Fovea is the MAR at zero eccentricity (w0), about 1/48 degree.
	Fovea float64
}

// DefaultMAR is the MAR model used throughout the reproduction,
// matching the user-study parameters the paper imports ("we directly
// employ the vision parameters (e.g., MAR slope m, fovea MAR w0) from
// the previous user studies").
var DefaultMAR = MARModel{Slope: 0.022, Fovea: 1.0 / 48}

// At returns the eye's MAR at eccentricity e degrees.
func (m MARModel) At(e float64) float64 {
	if e < 0 {
		e = 0
	}
	return m.Slope*e + m.Fovea
}

// ResolutionScale returns the relative linear sampling density (0,1]
// a display layer needs at eccentricity e to stay imperceptible: the
// ratio of foveal MAR to MAR(e). A scale of 1 means native resolution.
func (m MARModel) ResolutionScale(e float64) float64 {
	return m.Fovea / m.At(e)
}

// Display describes one eye's view: resolution and angular field.
type Display struct {
	Width, Height int     // pixels per eye
	FovH, FovV    float64 // field of view in degrees
}

// DefaultDisplay is the HMD modeled in the evaluation: a 1920x2160
// per-eye panel (Table 1 / Table 3 resolutions) with a typical
// 110x90-degree field of view.
var DefaultDisplay = Display{Width: 1920, Height: 2160, FovH: 110, FovV: 90}

// PixelsPerDegree returns the display's native linear sampling density
// along the horizontal axis.
func (d Display) PixelsPerDegree() float64 { return float64(d.Width) / d.FovH }

// MaxEccentricity returns the largest eccentricity visible on the
// display: the distance from center to a corner in degrees.
func (d Display) MaxEccentricity() float64 {
	return math.Hypot(d.FovH/2, d.FovV/2)
}

// TotalPixels returns the per-eye pixel count.
func (d Display) TotalPixels() int { return d.Width * d.Height }

// AreaFraction returns the fraction of the display's angular area
// covered by a foveal disc of radius e1 degrees centered at gaze
// (gx, gy) degrees from the display center. The disc is clipped to the
// display rectangle, so a fovea pushed toward an edge covers less of
// the frame — which is exactly why the LIWC can afford larger e1 when
// the user looks off-center.
//
// The clipped area is computed exactly, in closed form: with the gaze
// at the origin, the display rectangle [xa, xb] x [ya, yb] is the
// inclusion–exclusion of four corner-anchored quadrant rectangles, and
// each quadrant's overlap with the disc is a rectangle plus a circular
// segment. Each edge's segment integral is taken at most once per
// call, though two quadrants share it.
func (d Display) AreaFraction(e1, gx, gy float64) float64 {
	if e1 <= 0 {
		return 0
	}
	halfW, halfV := d.FovH/2, d.FovV/2
	r, rr := e1, e1*e1
	// The display's edges seen from the gaze, clipped to the disc:
	// x[0], x[1] the right and left, y[0], y[1] the top and bottom.
	var x, y [2]float64
	var xneg, yneg [2]bool
	x[0], xneg[0] = clipEdge(halfW-gx, r)
	x[1], xneg[1] = clipEdge(-halfW-gx, r)
	y[0], yneg[0] = clipEdge(halfV-gy, r)
	y[1], yneg[1] = clipEdge(-halfV-gy, r)
	// out[i][j]: the corner of x[i] and y[j] lies outside the disc, so
	// its quadrant is a rectangle up to the chord's end plus a segment.
	var out [2][2]bool
	for i := range x {
		for j := range y {
			out[i][j] = !(x[i]*x[i]+y[j]*y[j] <= rr)
		}
	}
	// Each x-edge's segment integral, and each y-edge's chord end xs and
	// its segment integral, taken once for the quadrants that share it.
	var segX, xs, segY [2]float64
	for i := range x {
		if out[i][0] || out[i][1] {
			segX[i] = segmentIntegral(x[i], r)
		}
	}
	for j := range y {
		if out[0][j] || out[1][j] {
			xs[j] = math.Sqrt(rr - y[j]*y[j])
			segY[j] = segmentIntegral(xs[j], r)
		}
	}
	// quadrant is the signed area of the disc inside the rectangle
	// spanned by the gaze and the corner of x[i] and y[j]: its sign is
	// that of the corner's x*y, so four of them sum to the display's
	// overlap with the disc.
	quadrant := func(i, j int) float64 {
		sign := 1.0
		if xneg[i] != yneg[j] {
			sign = -1
		}
		if !out[i][j] {
			return sign * x[i] * y[j]
		}
		return sign * (xs[j]*y[j] + segX[i] - segY[j])
	}
	area := quadrant(0, 0) - quadrant(1, 0) - quadrant(0, 1) + quadrant(1, 1)
	return max(area, 0) / (d.FovH * d.FovV)
}

// clipEdge returns an edge's distance from the gaze clipped to the
// disc radius r, and whether the edge lies on the negative side.
func clipEdge(coord, r float64) (v float64, neg bool) {
	if coord < 0 {
		return min(-coord, r), true
	}
	return min(coord, r), false
}

// segmentIntegral is the integral of sqrt(r²-s²) over s in [0, t], for
// 0 <= t <= r: the area under a quarter circle up to abscissa t.
func segmentIntegral(t, r float64) float64 {
	if t >= r {
		return math.Pi * r * r / 4
	}
	return (t*math.Sqrt(r*r-t*t) + r*r*math.Asin(t/r)) / 2
}

// areaRadii is how many whole-degree radii an AreaTable holds: 0
// through MaxE1.
const areaRadii = int(MaxE1) + 1

// AreaTable caches one display's clipped disc areas for one gaze: the
// AreaFraction of each whole-degree radius from 0 to MaxE1, integrated
// on first use. The LIWC steps e1 in whole degrees and the e2 scan
// steps one degree at a time from e1, so the partitions one frame
// computes at nearby fovea radii for one gaze share most of their
// radii. Other radii are integrated on every call.
//
// The table keys itself on the display and on the gaze's bits: a
// lookup for another display or gaze empties it first, so it never
// answers for a stale gaze. The zero value is an empty table. A table
// is owned by one goroutine; it is not safe for concurrent use.
type AreaTable struct {
	d      Display
	gx, gy uint64 // math.Float64bits of the keyed gaze
	filled [(areaRadii + 63) / 64]uint64
	frac   [areaRadii]float64
}

// Fraction returns d.AreaFraction(r, gx, gy) bit for bit, from the
// table when r is a whole degree in [0, MaxE1]. A nil table integrates
// every call.
func (t *AreaTable) Fraction(d Display, r, gx, gy float64) float64 {
	if t == nil || !(r >= 0 && r <= MaxE1) || r != math.Trunc(r) {
		return d.AreaFraction(r, gx, gy)
	}
	bx, by := math.Float64bits(gx), math.Float64bits(gy)
	if d != t.d || bx != t.gx || by != t.gy {
		t.d, t.gx, t.gy, t.filled = d, bx, by, [len(t.filled)]uint64{}
	}
	i := int(r)
	word, bit := i/64, uint64(1)<<(i%64)
	if t.filled[word]&bit == 0 {
		t.frac[i] = d.AreaFraction(r, gx, gy)
		t.filled[word] |= bit
	}
	return t.frac[i]
}

// Layer describes one resolution band of the foveated decomposition.
type Layer struct {
	Name string
	// Inner and Outer eccentricity bounds in degrees. The outer layer's
	// Outer equals the display's maximum eccentricity.
	Inner, Outer float64
	// Scale is the linear resolution scale in (0,1] the layer is
	// rendered and transmitted at.
	Scale float64
	// Pixels is the number of pixels the layer occupies after scaling
	// (per eye).
	Pixels int
}

// Partition is a full collaborative decomposition for one frame: the
// local fovea plus the remote middle and outer layers.
type Partition struct {
	E1, E2 float64 // fovea radius and adaptive middle/outer split
	Gaze   struct{ X, Y float64 }

	Fovea, Middle, Outer Layer

	// FoveaAreaFraction is the clipped angular-area share of the fovea.
	FoveaAreaFraction float64
	// PeripheryPixels is Middle.Pixels + Outer.Pixels: what the remote
	// server renders and streams (per eye).
	PeripheryPixels int
	// ResolutionReduction is 1 - (transmitted periphery pixels /
	// full-frame pixels): the Fig. 13 "resolution reduction" metric.
	ResolutionReduction float64
}

// ErrEccentricity reports an eccentricity outside the tunable range.
var ErrEccentricity = errors.New("foveation: eccentricity out of range")

// MinE1 and MaxE1 bound the tuning knob. MinE1 is the classic 5-degree
// fovea; MaxE1 of 90 degrees means "render everything locally"
// (Table 4 reports 90 for Doom3-L on LTE — the network is so slow the
// controller gives the whole frame to the mobile GPU).
const (
	MinE1 = 5.0
	MaxE1 = 90.0
)

// ClampE1 bounds an eccentricity to the tunable [MinE1, MaxE1] range.
// Controllers and geometry adapters share this so the clamp semantics
// cannot drift between call sites.
func ClampE1(e1 float64) float64 {
	if e1 < MinE1 {
		return MinE1
	}
	if e1 > MaxE1 {
		return MaxE1
	}
	return e1
}

// Partitioner computes per-frame foveated partitions for a display and
// MAR model.
type Partitioner struct {
	Display Display
	MAR     MARModel
	// MidScaleFloor and OuterScaleFloor bound the layer resolution
	// scales from below. The pure MAR model would let the far
	// periphery collapse to a handful of pixels; production foveated
	// renderers keep conservative floors to avoid aliasing and motion
	// shimmer (the "*Periphery Quality" guardrail of Eq. 1).
	MidScaleFloor, OuterScaleFloor float64
}

// NewPartitioner returns a partitioner over the given display using the
// default MAR model and quality floors.
func NewPartitioner(d Display) *Partitioner {
	return &Partitioner{Display: d, MAR: DefaultMAR, MidScaleFloor: 0.75, OuterScaleFloor: 0.50}
}

// LayerScale returns the linear resolution scale a transmitted layer
// needs at eccentricity e: the ratio of the display's Nyquist MAR
// (2 pixels per cycle at native density) to the eye's MAR, clamped to
// (floor, 1]. The display is already far coarser than foveal acuity,
// so the scale stays 1 until the eye's MAR overtakes the display's.
func (p *Partitioner) LayerScale(e, floor float64) float64 {
	return p.layerScale(p.nyquist(), e, floor)
}

// nyquist returns the display's Nyquist MAR: 2 pixels per cycle at
// native density, in degrees per cycle.
func (p *Partitioner) nyquist() float64 { return 2 / p.Display.PixelsPerDegree() }

// layerScale is LayerScale with the display's Nyquist MAR taken once
// by the caller, so a scan over e2 does not divide it out per step.
func (p *Partitioner) layerScale(nyquist, e, floor float64) float64 {
	s := nyquist / p.MAR.At(e)
	if s > 1 {
		s = 1
	}
	if s < floor {
		s = floor
	}
	return s
}

// Partition computes the layer decomposition for fovea radius e1 and
// gaze center (gx, gy) degrees. The middle/outer split *e2 is chosen to
// minimize the transmitted periphery pixel count (Eq. 1): a larger e2
// grows the middle layer (rendered at the finer middle scale) while a
// smaller e2 grows the outer layer (coarser but covering more area).
func (p *Partitioner) Partition(e1, gx, gy float64) (Partition, error) {
	return p.PartitionWith(nil, e1, gx, gy)
}

// PartitionWith is Partition reading the fovea's and every candidate
// e2's disc area through t, so partitions at several fovea radii for
// one gaze integrate each whole-degree radius once. The result is
// Partition's bit for bit; a nil t integrates every area afresh.
func (p *Partitioner) PartitionWith(t *AreaTable, e1, gx, gy float64) (Partition, error) {
	if e1 < MinE1 || e1 > MaxE1 {
		return Partition{}, ErrEccentricity
	}
	d := p.Display
	maxEcc := d.MaxEccentricity()

	var part Partition
	part.E1 = e1
	part.Gaze.X, part.Gaze.Y = gx, gy
	part.FoveaAreaFraction = t.Fraction(d, e1, gx, gy)

	total := float64(d.TotalPixels())
	foveaPixels := part.FoveaAreaFraction * total
	part.Fovea = Layer{
		Name:  "fovea",
		Inner: 0, Outer: e1,
		Scale:  1,
		Pixels: int(foveaPixels),
	}

	if e1 >= maxEcc {
		// Fovea covers the whole display: nothing is remote.
		part.E2 = maxEcc
		part.Middle = Layer{Name: "middle", Inner: e1, Outer: maxEcc, Scale: p.LayerScale(e1, p.MidScaleFloor)}
		part.Outer = Layer{Name: "outer", Inner: maxEcc, Outer: maxEcc, Scale: p.LayerScale(maxEcc, p.OuterScaleFloor)}
		part.ResolutionReduction = 0
		return part, nil
	}

	// Scan candidate e2 values minimizing periphery payload. Each step
	// reads one disc area; the winner's area is kept for sizing.
	bestE2 := e1
	bestCost := math.Inf(1)
	bestArea := 0.0
	nyquist := p.nyquist()
	sMid := p.layerScale(nyquist, e1, p.MidScaleFloor) // middle sampled for its inner edge
	for e2 := e1; e2 <= maxEcc+1e-9; e2 += 1 {
		sOut := p.layerScale(nyquist, e2, p.OuterScaleFloor)
		area := t.Fraction(d, e2, gx, gy)
		midFrac, outFrac := bandFractions(area, part.FoveaAreaFraction)
		cost := midFrac*total*sMid*sMid + outFrac*total*sOut*sOut
		if cost < bestCost {
			bestCost = cost
			bestE2 = e2
			bestArea = area
		}
	}

	e2 := bestE2
	sOut := p.layerScale(nyquist, e2, p.OuterScaleFloor)
	midFrac, outFrac := bandFractions(bestArea, part.FoveaAreaFraction)

	part.E2 = e2
	part.Middle = Layer{
		Name:  "middle",
		Inner: e1, Outer: e2,
		Scale:  sMid,
		Pixels: int(midFrac * total * sMid * sMid),
	}
	part.Outer = Layer{
		Name:  "outer",
		Inner: e2, Outer: maxEcc,
		Scale:  sOut,
		Pixels: int(outFrac * total * sOut * sOut),
	}
	part.PeripheryPixels = part.Middle.Pixels + part.Outer.Pixels
	part.ResolutionReduction = 1 - (foveaPixels+float64(part.PeripheryPixels))/total
	if part.ResolutionReduction < 0 {
		part.ResolutionReduction = 0
	}
	return part, nil
}

// bandFractions splits the display outside the fovea at a disc of
// clipped area fraction area: the middle band's share (disc minus
// fovea) and the outer band's share (the rest), each floored at 0.
func bandFractions(area, fovea float64) (mid, out float64) {
	mid = area - fovea
	if mid < 0 {
		mid = 0
	}
	out = 1 - area
	if out < 0 {
		out = 0
	}
	return mid, out
}

// PerceptionScore is a proxy for the paper's 50-candidate user survey:
// it returns 1.0 (no perceptible difference) when every layer meets its
// MAR constraint, and degrades linearly with the worst violation. The
// partitioner always satisfies the constraint by construction, so this
// exists to validate *other* (e.g. ablated) configurations.
func (p *Partitioner) PerceptionScore(part Partition) float64 {
	worst := 1.0
	check := func(l Layer) {
		if l.Outer <= l.Inner {
			return
		}
		need := p.LayerScale(l.Inner, 0)
		if l.Scale < need {
			if r := l.Scale / need; r < worst {
				worst = r
			}
		}
	}
	check(part.Middle)
	check(part.Outer)
	return worst
}
