//go:build race

package scenario

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Put items, so allocation budgets that count on pooled
// reuse cannot hold.
const raceEnabled = true
