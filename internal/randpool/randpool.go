// Package randpool recycles seeded *rand.Rand generators across
// simulation sessions. A fresh math/rand source is ~5 KB of state, and
// a short session allocates several of them; taking them from a pool
// keeps that garbage off the heap while leaving every random stream
// unchanged.
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
	if r, ok := pool.Get().(*rand.Rand); ok {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

// Put returns r to the pool for a later Get. The caller must not use r
// afterwards, nor Put it twice. A nil r is ignored.
func Put(r *rand.Rand) {
	if r != nil {
		pool.Put(r)
	}
}
