package foveation

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"qvr/internal/liwc"
)

// TestPartitionWithMatchesPartition holds the table path to Partition
// bit for bit on seeded random frames. Each frame partitions one gaze
// at e1 and then at e1+δ, δ a whole step of up to liwc.MaxDeltaE1 in
// either direction, as the LIWC's Plan does. One table serves every
// frame, as one session's does, so each frame's gaze (new, one ulp
// from the last, or the last one again) and the occasional second
// display test the re-keying that keeps a table from answering for a
// stale gaze or display. Fovea radii are whole and fractional, out of
// range at both ends, and at and past the display's corner; gazes go
// past the display edges.
func TestPartitionWithMatchesPartition(t *testing.T) {
	const frames = 20_000
	rng := rand.New(rand.NewSource(26))
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	displays := []Display{DefaultDisplay, {Width: 1440, Height: 1600, FovH: 100, FovV: 90}}
	maxDelta := int(liwc.MaxDeltaE1)

	var table AreaTable
	check := func(p *Partitioner, e1, gx, gy float64) {
		t.Helper()
		got, gotErr := p.PartitionWith(&table, e1, gx, gy)
		want, wantErr := p.Partition(e1, gx, gy)
		if gotErr != wantErr {
			t.Fatalf("PartitionWith(%v, %v, %v) on %v: error %v, Partition %v", e1, gx, gy, p.Display, gotErr, wantErr)
		}
		g, w := partitionBits(got), partitionBits(want)
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("PartitionWith(%v, %v, %v) on %v: word %d = %v, Partition %v", e1, gx, gy, p.Display, i, g[i], w[i])
			}
		}
	}

	var gx, gy float64
	var outOfRange, fullyLocal int
	for n := 0; n < frames; n++ {
		d := displays[0]
		if rng.Intn(8) == 0 {
			d = displays[1]
		}
		p := &Partitioner{Display: d, MAR: DefaultMAR, MidScaleFloor: rng.Float64(), OuterScaleFloor: rng.Float64()}
		switch k := rng.Intn(4); {
		case n > 0 && k == 0:
			// The last frame's gaze, perhaps on the other display.
		case n > 0 && k == 1:
			// One ulp from the last on one axis.
			if rng.Intn(2) == 0 {
				gx = math.Nextafter(gx, math.Inf(1))
			} else {
				gy = math.Nextafter(gy, math.Inf(-1))
			}
		default:
			gx, gy = uniform(-d.FovH/2-5, d.FovH/2+5), uniform(-d.FovV/2-5, d.FovV/2+5)
		}
		var e1 float64
		switch rng.Intn(4) {
		case 0:
			e1 = uniform(MinE1-1, MaxE1+1)
		case 1:
			e1 = math.Floor(uniform(d.MaxEccentricity()-2, MaxE1+2))
		default:
			e1 = float64(int(MinE1) - 1 + rng.Intn(int(MaxE1-MinE1)+3))
		}
		delta := float64(rng.Intn(2*maxDelta+1) - maxDelta)
		for _, e := range []float64{e1, e1 + delta} {
			check(p, e, gx, gy)
			switch {
			case e < MinE1 || e > MaxE1:
				outOfRange++
			case e >= d.MaxEccentricity():
				fullyLocal++
			}
		}
	}
	if outOfRange == 0 || fullyLocal == 0 {
		t.Errorf("the frames reached %d out-of-range and %d fully-local radii, want both", outOfRange, fullyLocal)
	}
}

// TestAreaTableFraction holds Fraction to AreaFraction bit for bit at
// cached and uncached radii, across a gaze change.
func TestAreaTableFraction(t *testing.T) {
	d := DefaultDisplay
	radii := []float64{-1, 0, 0.5, 1, 5, 17, 44.25, 71, 72, MaxE1, MaxE1 + 0.5, MaxE1 + 1, math.NaN(), math.Inf(1)}
	var table AreaTable
	for _, g := range [][2]float64{{0, 0}, {-12.5, 17.5}, {60, -50}, {-12.5, 17.5}} {
		for pass := 0; pass < 2; pass++ {
			for _, r := range radii {
				got, want := table.Fraction(d, r, g[0], g[1]), d.AreaFraction(r, g[0], g[1])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("Fraction(%v) at gaze %v pass %d = %v, AreaFraction %v", r, g, pass, got, want)
				}
			}
		}
	}
	var nilTable *AreaTable
	if got, want := nilTable.Fraction(d, 20, 3, 4), d.AreaFraction(20, 3, 4); got != want {
		t.Errorf("nil table Fraction = %v, AreaFraction %v", got, want)
	}
}

// TestAreaTableSharesRadii checks that a second partition at a nearby
// fovea radius for the same gaze integrates only the radii the first
// did not: the whole-degree radii between the two fovea radii. With no
// outer-scale floor the e2 scan runs to the display's corner, so the
// counts do not depend on where a scan may stop.
func TestAreaTableSharesRadii(t *testing.T) {
	p := &Partitioner{Display: DefaultDisplay, MAR: DefaultMAR, MidScaleFloor: 0.75}
	var table AreaTable
	filled := func() int { return bits.OnesCount64(table.filled[0]) + bits.OnesCount64(table.filled[1]) }
	last := int(math.Floor(DefaultDisplay.MaxEccentricity()))
	if _, err := p.PartitionWith(&table, 20, 10, -5); err != nil {
		t.Fatal(err)
	}
	if got, want := filled(), last-20+1; got != want {
		t.Fatalf("after e1=20: %d radii integrated, want %d", got, want)
	}
	if _, err := p.PartitionWith(&table, 17, 10, -5); err != nil {
		t.Fatal(err)
	}
	if got, want := filled(), last-17+1; got != want {
		t.Fatalf("after e1=17: %d radii integrated, want %d", got, want)
	}
	if _, err := p.PartitionWith(&table, 17, 10, -4); err != nil {
		t.Fatal(err)
	}
	if got, want := filled(), last-17+1; got != want {
		t.Fatalf("after a gaze change: %d radii integrated, want %d", got, want)
	}
}

// BenchmarkPartitionFrame times the partitions one LIWC frame asks
// for, through one AreaTable: at the current e1 and at the planned
// e1±3 for the frame's gaze. It sweeps BenchmarkPartition's e1 and
// gazes, one frame per pair, with the gaze changing every frame, so
// it does twice BenchmarkPartition's partitions.
func BenchmarkPartitionFrame(b *testing.B) {
	p := NewPartitioner(DefaultDisplay)
	gazes := [][2]float64{{0, 0}, {-12.5, 17.5}, {40, -20}}
	var table AreaTable
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		step := 3.0
		for e1 := MinE1; e1 <= 70; e1 += 5 {
			for _, g := range gazes {
				step = -step
				if _, err := p.PartitionWith(&table, e1, g[0], g[1]); err != nil {
					b.Fatal(err)
				}
				if _, err := p.PartitionWith(&table, ClampE1(e1+step), g[0], g[1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
