package fixture

import (
	"sync"
	"sync/atomic"
)

// A worker-pool idiom: contiguous shards, results indexed by a
// goroutine-local variable, joined before any read. Nothing shared is
// written at a location another worker can touch.
func cleanSharded(specs []int) []int {
	results := make([]int, len(specs))
	workers := 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := len(specs)*w/workers, len(specs)*(w+1)/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				results[i] = specs[i] * 2
			}
		}(lo, hi)
	}
	wg.Wait()
	return results
}

// The fleet's worker-pool idiom: each worker claims the next index
// from a shared atomic counter and writes only the slot it claimed,
// plus its own per-worker slot. The claim itself is a method call on a
// captured counter, not a write.
func cleanClaimed(specs []int) ([]int, []int) {
	results := make([]int, len(specs))
	workers := 4
	counts := make([]int, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				results[i] = specs[i] * 2
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	return results, counts
}

// Goroutine-local state and channel sends are always fine.
func cleanLocal(out chan<- int) {
	go func() {
		sum := 0
		for i := 0; i < 10; i++ {
			sum += i
		}
		out <- sum
	}()
}
