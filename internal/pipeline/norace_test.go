//go:build !race

package pipeline

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Put items, so pooled reuse cannot promise zero allocations.
const raceEnabled = false
