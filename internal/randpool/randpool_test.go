package randpool

import (
	"math/rand"
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

// TestReseededMatchesFresh holds the property Get relies on: a
// generator re-seeded after another stream draws exactly what a fresh
// rand.New(rand.NewSource(seed)) draws.
func TestReseededMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(99))
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
