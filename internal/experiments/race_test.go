//go:build race

package experiments

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Put items, so pooled sessions cannot keep allocations flat.
const raceEnabled = true
