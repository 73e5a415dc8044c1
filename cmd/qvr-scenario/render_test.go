package main

import (
	"bytes"
	"testing"

	"qvr/internal/cliout"
	"qvr/internal/scenario"
)

// renderBuiltin runs a built-in once, as `qvr-scenario -builtin name
// -frames 2 -warmup 1 -workers n` does, and returns its report in
// every format.
func renderBuiltin(t *testing.T, name string, workers int) map[cliout.Format][]byte {
	t.Helper()
	sc, err := scenario.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario.Run(sc, scenario.Options{
		Workers: workers, FramesOverride: 2, WarmupOverride: scenario.Warmup(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := map[cliout.Format][]byte{}
	for _, form := range cliout.Formats {
		var buf bytes.Buffer
		if err := report(&buf, r, form); err != nil {
			t.Fatal(err)
		}
		out[form] = buf.Bytes()
	}
	return out
}
