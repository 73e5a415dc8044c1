// Package randpool hands out seeded *rand.Rand generators for
// simulation sessions, lazily seeded and recycled. Each generator runs
// math/rand's own algorithm and draws exactly the stream of
// rand.New(rand.NewSource(seed)), but seeding costs O(1) instead of
// math/rand's 1,841 LCG steps: the 607-word state is filled as draws
// reach it, and a short session draws a handful of numbers or none.
// Recycling through a pool keeps the ~5 KB state off the heap.
package randpool

import (
	"math/rand"
	"sync"
)

var pool sync.Pool

// Get returns a generator seeded with seed. Its draws are identical to
// those of rand.New(rand.NewSource(seed)): (*rand.Rand).Seed resets the
// whole source and the Rand's buffered read position, so a recycled
// generator keeps nothing of its previous stream.
func Get(seed int64) *rand.Rand {
	r, ok := pool.Get().(*rand.Rand)
	if !ok {
		r = rand.New(new(source))
	}
	r.Seed(seed)
	return r
}

// Put returns r to the pool for a later Get. The caller must not use r
// afterwards, nor Put it twice. A nil r is ignored.
func Put(r *rand.Rand) {
	if r != nil {
		pool.Put(r)
	}
}
