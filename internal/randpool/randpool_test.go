package randpool

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// draws takes a mixed run of values from r, including a Read that
// leaves the Rand's buffered read position mid-word.
func draws(r *rand.Rand) []float64 {
	var out []float64
	buf := make([]byte, 3)
	for i := 0; i < 50; i++ {
		out = append(out, float64(r.Int63()), r.Float64(), r.NormFloat64(), r.ExpFloat64())
		r.Read(buf)
		for _, b := range buf {
			out = append(out, float64(b))
		}
	}
	return out
}

func equalDraws(t *testing.T, seed int64, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: draw %d = %v, fresh source %v", seed, i, got[i], want[i])
		}
	}
}

// TestReseededMatchesFresh holds the property Get relies on: a lazy
// generator re-seeded after another stream draws exactly what a fresh
// rand.New(rand.NewSource(seed)) draws.
func TestReseededMatchesFresh(t *testing.T) {
	r := rand.New(new(source))
	r.Seed(99)
	draws(r)
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		r.Seed(seed)
		equalDraws(t, seed, draws(r), draws(rand.New(rand.NewSource(seed))))
	}
}

// TestGetMatchesFresh cycles generators through the pool under
// changing seeds: whichever generator Get hands out, recycled or new,
// its stream is the fresh one.
func TestGetMatchesFresh(t *testing.T) {
	for i := int64(0); i < 20; i++ {
		seed := i*7919 - 40
		r := Get(seed)
		equalDraws(t, seed, draws(r), draws(rand.New(rand.NewSource(seed))))
		Put(r)
	}
}

func TestPutNilIgnored(t *testing.T) {
	Put(nil)
	for i := 0; i < 4; i++ {
		if Get(int64(i)) == nil {
			t.Fatal("Get returned nil after Put(nil)")
		}
	}
}

// stdlibSeeds are the edge cases of math/rand's seed normalisation:
// zero and the values that reduce to it, the modulus boundaries, and
// the extremes of int64.
var stdlibSeeds = []int64{
	0, 1, -1, int32max, -int32max, 1 << 31, -(1 << 31), 89482311,
	math.MinInt64, math.MaxInt64,
}

// stdlibCounts straddle the lazy fill's frontiers: the tap frontier
// finishes on draw 273, the feed frontier on draw 334, and both
// pointers wrap on draw 607.
var stdlibCounts = []int{0, 1, 3, 272, 273, 274, 333, 334, 335, 606, 607, 608, 5000}

// stdlibMethods each take one value from r through a different path
// of *rand.Rand, appending what they drew to out.
var stdlibMethods = map[string]func(r *rand.Rand, out []uint64) []uint64{
	"Uint64":      func(r *rand.Rand, out []uint64) []uint64 { return append(out, r.Uint64()) },
	"Int63":       func(r *rand.Rand, out []uint64) []uint64 { return append(out, uint64(r.Int63())) },
	"Float64":     func(r *rand.Rand, out []uint64) []uint64 { return append(out, math.Float64bits(r.Float64())) },
	"NormFloat64": func(r *rand.Rand, out []uint64) []uint64 { return append(out, math.Float64bits(r.NormFloat64())) },
	"ExpFloat64":  func(r *rand.Rand, out []uint64) []uint64 { return append(out, math.Float64bits(r.ExpFloat64())) },
	"Intn": func(r *rand.Rand, out []uint64) []uint64 {
		return append(out, uint64(r.Intn(1000)), uint64(r.Intn(1<<40)))
	},
	"Perm": func(r *rand.Rand, out []uint64) []uint64 {
		for _, v := range r.Perm(5) {
			out = append(out, uint64(v))
		}
		return out
	},
	"Read": func(r *rand.Rand, out []uint64) []uint64 {
		// Three bytes leave the Rand's read position mid-word.
		var buf [3]byte
		r.Read(buf[:])
		for _, b := range buf {
			out = append(out, uint64(b))
		}
		return out
	},
}

// TestSourceMatchesStdlib holds the lazy source to math/rand's stream:
// for every seed, after every frontier-straddling number of draws,
// every method of *rand.Rand returns what rand.New(rand.NewSource(seed))
// returns. One lazy generator serves the whole test and is re-seeded
// partway through its previous stream each time, as the pool does.
func TestSourceMatchesStdlib(t *testing.T) {
	seeds := append([]int64(nil), stdlibSeeds...)
	gen := rand.New(rand.NewSource(20240917))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	names := make([]string, 0, len(stdlibMethods))
	for name := range stdlibMethods {
		names = append(names, name)
	}
	sort.Strings(names)

	lazy := rand.New(new(source))
	var got, want []uint64
	for _, seed := range seeds {
		for _, n := range stdlibCounts {
			for _, name := range names {
				method := stdlibMethods[name]
				lazy.Seed(seed)
				std := rand.New(rand.NewSource(seed))
				for i := 0; i < n; i++ {
					if g, w := lazy.Uint64(), std.Uint64(); g != w {
						t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, i, g, w)
					}
				}
				got, want = got[:0], want[:0]
				for i := 0; i < 8; i++ {
					got = method(lazy, got)
					want = method(std, want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d: %s after %d draws = %v, math/rand %v", seed, name, n, got, want)
				}
			}
		}
	}
}

// BenchmarkSeed times one session's generator life, seed and draws,
// for the pooled lazy source against a re-seeded math/rand source:
// the layer ratio behind the pool's seeding cost.
func BenchmarkSeed(b *testing.B) {
	for _, draws := range []int{3, 1000} {
		b.Run(fmt.Sprintf("stdlib/draws=%d", draws), func(b *testing.B) {
			r := rand.New(rand.NewSource(0))
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
				for j := 0; j < draws; j++ {
					r.Float64()
				}
			}
		})
		b.Run(fmt.Sprintf("pooled/draws=%d", draws), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := Get(int64(i))
				for j := 0; j < draws; j++ {
					r.Float64()
				}
				Put(r)
			}
		})
	}
}
