//go:build race

package main

// raceEnabled reports a -race build, where the million-session
// built-in runs too slowly for a test.
const raceEnabled = true
