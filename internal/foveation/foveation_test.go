package foveation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMARIncreasesWithEccentricity(t *testing.T) {
	m := DefaultMAR
	prev := m.At(0)
	for e := 1.0; e <= 70; e++ {
		cur := m.At(e)
		if cur <= prev {
			t.Fatalf("MAR not increasing at e=%v", e)
		}
		prev = cur
	}
}

func TestMARNegativeClamped(t *testing.T) {
	if got := DefaultMAR.At(-5); got != DefaultMAR.Fovea {
		t.Errorf("At(-5) = %v, want fovea MAR", got)
	}
}

func TestResolutionScaleBounds(t *testing.T) {
	m := DefaultMAR
	if s := m.ResolutionScale(0); s != 1 {
		t.Errorf("scale at fovea = %v, want 1", s)
	}
	for e := 0.0; e <= 80; e += 5 {
		s := m.ResolutionScale(e)
		if s <= 0 || s > 1 {
			t.Fatalf("scale out of (0,1] at e=%v: %v", e, s)
		}
	}
	// At high eccentricity the required resolution collapses: the outer
	// layer is cheap to transmit.
	if s := m.ResolutionScale(50); s > 0.05 {
		t.Errorf("scale at 50deg = %v, want < 0.05", s)
	}
}

func TestAreaFractionCenteredMonotonic(t *testing.T) {
	d := DefaultDisplay
	prev := 0.0
	for e1 := 5.0; e1 <= 90; e1 += 5 {
		f := d.AreaFraction(e1, 0, 0)
		if f < prev-1e-12 {
			t.Fatalf("area fraction decreased at e1=%v", e1)
		}
		prev = f
	}
	if prev < 0.999 {
		t.Errorf("area fraction at e1=90 = %v, want ~1", prev)
	}
}

func TestAreaFractionSmallDisc(t *testing.T) {
	d := DefaultDisplay
	// An unclipped disc's analytic area is pi*e1^2.
	got := d.AreaFraction(10, 0, 0)
	want := math.Pi * 100 / (d.FovH * d.FovV)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("AreaFraction(10,0,0) = %v, want %v (1%%)", got, want)
	}
}

func TestAreaFractionEdgeClipped(t *testing.T) {
	d := DefaultDisplay
	center := d.AreaFraction(15, 0, 0)
	edge := d.AreaFraction(15, d.FovH/2, 0) // gaze at the right edge
	if edge >= center {
		t.Errorf("edge fraction %v not less than centered %v", edge, center)
	}
	if edge < center*0.4 || edge > center*0.6 {
		t.Errorf("half-clipped disc should be ~half: %v vs %v", edge, center)
	}
}

func TestAreaFractionZeroAndNegative(t *testing.T) {
	d := DefaultDisplay
	if d.AreaFraction(0, 0, 0) != 0 {
		t.Error("zero radius should cover nothing")
	}
	if d.AreaFraction(-3, 0, 0) != 0 {
		t.Error("negative radius should cover nothing")
	}
}

func TestAreaFractionRange(t *testing.T) {
	d := DefaultDisplay
	f := func(e1, gx, gy float64) bool {
		e1 = math.Abs(math.Mod(e1, 90))
		gx = math.Mod(gx, 55)
		gy = math.Mod(gy, 45)
		if math.IsNaN(e1) || math.IsNaN(gx) || math.IsNaN(gy) {
			return true
		}
		a := d.AreaFraction(e1, gx, gy)
		return a >= 0 && a <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartitionRejectsOutOfRange(t *testing.T) {
	p := NewPartitioner(DefaultDisplay)
	if _, err := p.Partition(4, 0, 0); err == nil {
		t.Error("e1=4 should be rejected")
	}
	if _, err := p.Partition(91, 0, 0); err == nil {
		t.Error("e1=91 should be rejected")
	}
}

func TestPartitionLayersNested(t *testing.T) {
	p := NewPartitioner(DefaultDisplay)
	for e1 := MinE1; e1 <= 45; e1 += 5 {
		part, err := p.Partition(e1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if part.E2 < part.E1 {
			t.Fatalf("e2 %v < e1 %v", part.E2, part.E1)
		}
		if part.Middle.Inner != e1 || part.Middle.Outer != part.E2 {
			t.Fatalf("middle layer bounds wrong: %+v", part.Middle)
		}
		if part.Outer.Inner != part.E2 {
			t.Fatalf("outer layer bounds wrong: %+v", part.Outer)
		}
	}
}

func TestPartitionPeripheryShrinksWithE1(t *testing.T) {
	p := NewPartitioner(DefaultDisplay)
	prev := math.MaxInt64
	for e1 := MinE1; e1 <= 60; e1 += 5 {
		part, err := p.Partition(e1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if part.PeripheryPixels > prev {
			t.Fatalf("periphery grew at e1=%v: %d > %d", e1, part.PeripheryPixels, prev)
		}
		prev = part.PeripheryPixels
	}
}

func TestPartitionFullyLocalAtMaxEcc(t *testing.T) {
	p := NewPartitioner(DefaultDisplay)
	part, err := p.Partition(MaxE1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if part.PeripheryPixels != 0 {
		t.Errorf("e1=90 should leave nothing remote, got %d pixels", part.PeripheryPixels)
	}
}

func TestPartitionPeripheryMuchSmallerThanFull(t *testing.T) {
	// The software layer's entire point: streamed periphery pixels are a
	// small fraction of the full frame even at the minimum fovea.
	p := NewPartitioner(DefaultDisplay)
	part, err := p.Partition(MinE1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(part.PeripheryPixels) / float64(DefaultDisplay.TotalPixels())
	if frac > 0.5 {
		t.Errorf("periphery fraction at e1=5 is %v, want well under 0.5", frac)
	}
	if part.ResolutionReduction <= 0 {
		t.Errorf("resolution reduction = %v, want positive", part.ResolutionReduction)
	}
}

func TestPartitionE2Adaptive(t *testing.T) {
	// *e2 should move outward as e1 grows (the middle band tracks the
	// fovea) and always stay within display range.
	p := NewPartitioner(DefaultDisplay)
	maxEcc := DefaultDisplay.MaxEccentricity()
	prevE2 := 0.0
	for e1 := MinE1; e1 <= 50; e1 += 5 {
		part, err := p.Partition(e1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if part.E2 > maxEcc+1 {
			t.Fatalf("e2 %v beyond display max %v", part.E2, maxEcc)
		}
		if part.E2+1e-9 < prevE2 {
			t.Fatalf("e2 moved inward as e1 grew: %v -> %v", prevE2, part.E2)
		}
		prevE2 = part.E2
	}
}

func TestPerceptionScoreSatisfied(t *testing.T) {
	p := NewPartitioner(DefaultDisplay)
	for e1 := MinE1; e1 <= 60; e1 += 5 {
		part, err := p.Partition(e1, 3, -2)
		if err != nil {
			t.Fatal(err)
		}
		if s := p.PerceptionScore(part); s != 1 {
			t.Fatalf("MAR-constrained partition scored %v at e1=%v", s, e1)
		}
	}
}

func TestPerceptionScoreDetectsViolation(t *testing.T) {
	p := NewPartitioner(DefaultDisplay)
	part, err := p.Partition(10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Force the outer layer far below its MAR-required scale (the
	// quality floors keep honest partitions well above it).
	part.Outer.Scale *= 0.1
	if s := p.PerceptionScore(part); s >= 1 {
		t.Errorf("violated partition scored %v, want < 1", s)
	}
}

func TestGazeOffCenterReducesPeriphery(t *testing.T) {
	// Looking toward a corner clips the fovea but also shifts layer
	// areas; the decomposition must stay consistent (pixels >= 0, sum
	// sensible).
	p := NewPartitioner(DefaultDisplay)
	part, err := p.Partition(20, 30, 20)
	if err != nil {
		t.Fatal(err)
	}
	if part.Middle.Pixels < 0 || part.Outer.Pixels < 0 {
		t.Errorf("negative layer pixels: %+v", part)
	}
	total := float64(DefaultDisplay.TotalPixels())
	if float64(part.Fovea.Pixels) > total {
		t.Errorf("fovea exceeds display: %d", part.Fovea.Pixels)
	}
}

// refAreaFraction is the 128-strip midpoint rule AreaFraction used
// before its closed form: each strip's disc chord, clipped to the
// display. TestAreaFractionMatchesStripRule bounds how far the exact
// area moved from it.
func refAreaFraction(d Display, e1, gx, gy float64) float64 {
	if e1 <= 0 {
		return 0
	}
	halfW, halfV := d.FovH/2, d.FovV/2
	const strips = 128
	y0 := math.Max(gy-e1, -halfV)
	y1 := math.Min(gy+e1, halfV)
	if y1 <= y0 {
		return 0
	}
	dy := (y1 - y0) / strips
	area := 0.0
	for i := 0; i < strips; i++ {
		y := y0 + (float64(i)+0.5)*dy
		h := e1*e1 - (y-gy)*(y-gy)
		if h <= 0 {
			continue
		}
		half := math.Sqrt(h)
		x0 := math.Max(gx-half, -halfW)
		x1 := math.Min(gx+half, halfW)
		if x1 > x0 {
			area += (x1 - x0) * dy
		}
	}
	return area / (d.FovH * d.FovV)
}

// refPartition is Partition as it was before the scan integrated each
// candidate disc once: two area calls per e2 step, then a recompute at
// the winning e2. It uses the kernel under test, d.AreaFraction.
func refPartition(p *Partitioner, e1, gx, gy float64) (Partition, error) {
	if e1 < MinE1 || e1 > MaxE1 {
		return Partition{}, ErrEccentricity
	}
	d := p.Display
	maxEcc := d.MaxEccentricity()

	var part Partition
	part.E1 = e1
	part.Gaze.X, part.Gaze.Y = gx, gy
	part.FoveaAreaFraction = d.AreaFraction(e1, gx, gy)

	total := float64(d.TotalPixels())
	foveaPixels := part.FoveaAreaFraction * total
	part.Fovea = Layer{Name: "fovea", Inner: 0, Outer: e1, Scale: 1, Pixels: int(foveaPixels)}

	if e1 >= maxEcc {
		part.E2 = maxEcc
		part.Middle = Layer{Name: "middle", Inner: e1, Outer: maxEcc, Scale: p.LayerScale(e1, p.MidScaleFloor)}
		part.Outer = Layer{Name: "outer", Inner: maxEcc, Outer: maxEcc, Scale: p.LayerScale(maxEcc, p.OuterScaleFloor)}
		part.ResolutionReduction = 0
		return part, nil
	}

	bestE2 := e1
	bestCost := math.Inf(1)
	sMid := p.LayerScale(e1, p.MidScaleFloor)
	for e2 := e1; e2 <= maxEcc+1e-9; e2 += 1 {
		sOut := p.LayerScale(e2, p.OuterScaleFloor)
		midFrac := d.AreaFraction(e2, gx, gy) - part.FoveaAreaFraction
		if midFrac < 0 {
			midFrac = 0
		}
		outFrac := 1 - d.AreaFraction(e2, gx, gy)
		if outFrac < 0 {
			outFrac = 0
		}
		cost := midFrac*total*sMid*sMid + outFrac*total*sOut*sOut
		if cost < bestCost {
			bestCost = cost
			bestE2 = e2
		}
	}

	e2 := bestE2
	sOut := p.LayerScale(e2, p.OuterScaleFloor)
	midFrac := d.AreaFraction(e2, gx, gy) - part.FoveaAreaFraction
	if midFrac < 0 {
		midFrac = 0
	}
	outFrac := 1 - d.AreaFraction(e2, gx, gy)
	if outFrac < 0 {
		outFrac = 0
	}

	part.E2 = e2
	part.Middle = Layer{Name: "middle", Inner: e1, Outer: e2, Scale: sMid, Pixels: int(midFrac * total * sMid * sMid)}
	part.Outer = Layer{Name: "outer", Inner: e2, Outer: maxEcc, Scale: sOut, Pixels: int(outFrac * total * sOut * sOut)}
	part.PeripheryPixels = part.Middle.Pixels + part.Outer.Pixels
	part.ResolutionReduction = 1 - (foveaPixels+float64(part.PeripheryPixels))/total
	if part.ResolutionReduction < 0 {
		part.ResolutionReduction = 0
	}
	return part, nil
}

// partitionBits flattens a Partition into comparable words: floats as
// their IEEE-754 bits, so -0 and +0 (or two NaN payloads) differ.
func partitionBits(p Partition) []any {
	layer := func(l Layer) []any {
		return []any{l.Name, math.Float64bits(l.Inner), math.Float64bits(l.Outer), math.Float64bits(l.Scale), l.Pixels}
	}
	out := []any{
		math.Float64bits(p.E1), math.Float64bits(p.E2),
		math.Float64bits(p.Gaze.X), math.Float64bits(p.Gaze.Y),
		math.Float64bits(p.FoveaAreaFraction), p.PeripheryPixels,
		math.Float64bits(p.ResolutionReduction),
	}
	for _, l := range []Layer{p.Fovea, p.Middle, p.Outer} {
		out = append(out, layer(l)...)
	}
	return out
}

// bitGrid spans clipped, off-centre gazes and both Partition branches
// (a scanned e2 and the fully-local fovea at and past MaxEccentricity).
var (
	bitGridE1 = []float64{5, 5.5, 7, 12.25, 30, 45.5, 70, DefaultDisplay.MaxEccentricity(), 90}
	bitGridGX = []float64{-55, -40, -12.5, 0, 3.3, 40, 55}
	bitGridGY = []float64{-45, -20, 0, 17.5, 45}
)

// TestPartitionBitIdenticalToReference holds the single-integration
// scan to the reference scan bit for bit, over the whole grid. Both
// call the same area kernel; the kernel itself is held to analytic
// areas and to the strip rule by the AreaFraction tests below.
func TestPartitionBitIdenticalToReference(t *testing.T) {
	p := NewPartitioner(DefaultDisplay)
	for _, e1 := range bitGridE1 {
		for _, gx := range bitGridGX {
			for _, gy := range bitGridGY {
				got, gotErr := p.Partition(e1, gx, gy)
				want, wantErr := refPartition(p, e1, gx, gy)
				if gotErr != wantErr {
					t.Fatalf("Partition(%v, %v, %v) error %v, reference %v", e1, gx, gy, gotErr, wantErr)
				}
				g, w := partitionBits(got), partitionBits(want)
				for i := range w {
					if g[i] != w[i] {
						t.Errorf("Partition(%v, %v, %v) word %d = %v, reference %v", e1, gx, gy, i, g[i], w[i])
						break
					}
				}
			}
		}
	}
}

// TestPartitionMatchesReferenceRandom holds Partition to the reference
// scan bit for bit on seeded random inputs nobody picked: fovea radii
// a little past both ends of [MinE1, MaxE1], gazes a little past the
// display edges, and random quality floors, so the scan's winner lands
// before, at and after the point where the outer scale meets its
// floor.
func TestPartitionMatchesReferenceRandom(t *testing.T) {
	const inputs = 100_000
	rng := rand.New(rand.NewSource(20))
	d := DefaultDisplay
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	for n := 0; n < inputs; n++ {
		p := &Partitioner{Display: d, MAR: DefaultMAR, MidScaleFloor: rng.Float64(), OuterScaleFloor: rng.Float64()}
		e1 := uniform(MinE1-1, MaxE1+1)
		gx := uniform(-d.FovH/2-5, d.FovH/2+5)
		gy := uniform(-d.FovV/2-5, d.FovV/2+5)
		got, gotErr := p.Partition(e1, gx, gy)
		want, wantErr := refPartition(p, e1, gx, gy)
		if gotErr != wantErr {
			t.Fatalf("Partition(%v, %v, %v) floors %v/%v: error %v, reference %v",
				e1, gx, gy, p.MidScaleFloor, p.OuterScaleFloor, gotErr, wantErr)
		}
		g, w := partitionBits(got), partitionBits(want)
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("Partition(%v, %v, %v) floors %v/%v: word %d = %v, reference %v",
					e1, gx, gy, p.MidScaleFloor, p.OuterScaleFloor, i, g[i], w[i])
			}
		}
	}
}

// TestAreaFractionAnalytic holds the closed form to areas known
// exactly: an unclipped disc, a disc halved by an edge, a disc
// quartered by a corner, and discs covering the whole display.
func TestAreaFractionAnalytic(t *testing.T) {
	d := DefaultDisplay
	halfW, halfV := d.FovH/2, d.FovV/2
	screen := d.FovH * d.FovV
	for _, c := range []struct {
		name       string
		e1, gx, gy float64
		want       float64
	}{
		{"centred disc", 10, 0, 0, math.Pi * 100 / screen},
		{"off-centre disc", 20, -12.5, 17.5, math.Pi * 400 / screen},
		{"half disc at the right edge", 15, halfW, 0, math.Pi * 225 / 2 / screen},
		{"half disc at the bottom edge", 30, 4, -halfV, math.Pi * 900 / 2 / screen},
		{"quarter disc at a corner", 15, halfW, halfV, math.Pi * 225 / 4 / screen},
		{"quarter disc at the opposite corner", 40, -halfW, -halfV, math.Pi * 1600 / 4 / screen},
		{"whole display, disc through the corners", d.MaxEccentricity(), 0, 0, 1},
		{"whole display, off-centre gaze", MaxE1, 3.3, -2, 1},
	} {
		got := d.AreaFraction(c.e1, c.gx, c.gy)
		if rel := math.Abs(got-c.want) / c.want; rel > 1e-12 {
			t.Errorf("%s: AreaFraction(%v, %v, %v) = %v, want %v (relative error %.3g)", c.name, c.e1, c.gx, c.gy, got, c.want, rel)
		}
	}
	if got := d.AreaFraction(MaxE1, 0, 0); got != 1 {
		t.Errorf("AreaFraction(%v, 0, 0) = %v, want exactly 1", MaxE1, got)
	}
}

// TestAreaFractionMatchesStripRule bounds the closed form's departure
// from the strip rule it replaced, over the fovea radii and gazes the
// partition sees.
func TestAreaFractionMatchesStripRule(t *testing.T) {
	d := DefaultDisplay
	worst := 0.0
	for e1 := MinE1; e1 <= 71; e1 += 0.5 {
		for gx := -40.0; gx <= 40; gx += 2.5 {
			for gy := -30.0; gy <= 30; gy += 2.5 {
				got, ref := d.AreaFraction(e1, gx, gy), refAreaFraction(d, e1, gx, gy)
				rel := math.Abs(got-ref) / ref
				if rel > 1e-3 {
					t.Fatalf("AreaFraction(%v, %v, %v) = %v, strip rule %v (relative %.3g)", e1, gx, gy, got, ref, rel)
				}
				worst = max(worst, rel)
			}
		}
	}
	t.Logf("largest relative departure from the strip rule: %.3g", worst)
}

// BenchmarkPartition times one e1 sweep (MinE1 to 70 degrees in
// 5-degree steps) at three gazes, two of them off-centre: the
// per-frame partition kernel the foveated designs run.
func BenchmarkPartition(b *testing.B) {
	p := NewPartitioner(DefaultDisplay)
	gazes := [][2]float64{{0, 0}, {-12.5, 17.5}, {40, -20}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, g := range gazes {
			for e1 := MinE1; e1 <= 70; e1 += 5 {
				if _, err := p.Partition(e1, g[0], g[1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
