package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"qvr/internal/cliout"
	"qvr/internal/fleet"
)

// goldenOptions is `qvr-fleet -sessions 40 -gpus 2 -frames 8 -warmup 4`:
// a 2-GPU cluster admits 16 of the 40 sessions and drops the other 24,
// so the report carries both result rows and dropped rows.
var goldenOptions = options{
	sessions: 40, mix: "mixed", frames: 8, warmup: 4, design: "qvr",
	seed: 1, gpus: 2,
}

// cliGolden pins the command's report for goldenOptions: the SHA-256
// of the table, JSON and CSV output, in that order. The report is
// deterministic apart from the wall time and the pool size, which the
// test zeroes, so one digest holds for every -workers value.
var cliGolden = [3]string{
	"157b9d291c593fd74867e03de2330cc38a0529e33a7b002ccb4290f19c841553",
	"d5858e20c7cf986f16f4da1d066992673b320451f343b32eb6c2a33aab8eb8bc",
	"ebbfeb6d306f5e8e0f1edf801a1f9a7b2a164b8ae9eb38d0fdcefc5af4a3e81d",
}

// TestCLIGoldenDigests renders goldenOptions' run in every format at
// two pool sizes and compares each report's digest with its golden.
func TestCLIGoldenDigests(t *testing.T) {
	for _, workers := range []int{1, 4} {
		o := goldenOptions
		o.workers = workers
		cfg, err := fleetConfig(o)
		if err != nil {
			t.Fatal(err)
		}
		r := fleet.Run(cfg)
		if len(r.Sessions) == 0 || len(r.Dropped) == 0 {
			t.Fatalf("workers %d: %d sessions ran and %d dropped; the golden needs both", workers, len(r.Sessions), len(r.Dropped))
		}
		r.Workers, r.WallSeconds = 0, 0
		for i, form := range cliout.Formats {
			var buf bytes.Buffer
			if err := report(&buf, r, form); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != cliGolden[i] {
				t.Errorf("workers %d, %s: digest %s, want %s\n%s", workers, form, got, cliGolden[i], buf.Bytes())
			}
		}
	}
}
