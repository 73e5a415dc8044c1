package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"qvr/internal/fleet"
	"qvr/internal/obs"
	"qvr/internal/obs/series"
)

// withFidelity forces the mixed-fidelity fast path onto a scenario
// that doesn't declare one; scenarios with their own [fidelity]
// section keep it. The generous fraction keeps the cross-check sample
// statistically meaningful at smoke frame counts, and two budgets are
// widened to match the miniature sample's resolution: target_share is
// quantized at 1/exact-sessions, and the percentile checks ride the
// tail of a few hundred draws, so the production budgets (which
// giga-steady meets with ~2% error at a million sessions) sit below
// what a phase this small can even resolve.
func withFidelity(sc Scenario) Scenario {
	if sc.Fidelity == nil {
		sc.Fidelity = &Fidelity{
			ExactFraction: 0.4,
			Calibration:   6,
			Tolerance:     fleet.Tolerance{MTP: 0.25, Share: 0.3},
		}
	}
	return sc
}

// TestFidelityBoundsAcrossBuiltins is the satellite acceptance check:
// on every built-in scenario, at smoke frame counts, the calibrated
// surrogate must stay inside its declared error bounds. Run itself
// fails loudly on a refuted phase, so mustRun doubles as the bound
// check; the loop then audits the report's bookkeeping. The two scale
// built-ins are excluded here — `make scale-smoke` runs them end to
// end, giga-steady on this very fast path.
func TestFidelityBoundsAcrossBuiltins(t *testing.T) {
	for _, name := range BuiltinNames() {
		if name == "mega-steady" || name == "giga-steady" {
			continue // hundreds of thousands of sessions; covered by the scale smoke
		}
		sc := withFidelity(mustBuiltin(t, name))
		// Slightly richer windows than `tiny`: the percentile checks
		// compare tails of per-session sample distributions, and at 12
		// frames a phase's p95/p99 rides on a handful of draws.
		r := mustRun(t, sc, Options{FramesOverride: 24, WarmupOverride: Warmup(8)})
		for _, p := range r.Phases {
			if p.Active == 0 {
				continue
			}
			f := p.Fleet.Fidelity
			if f == nil {
				t.Errorf("%s/%s: mixed run carries no fidelity report", name, p.Phase.Name)
				continue
			}
			if f.Refuted {
				t.Errorf("%s/%s: refuted with max error %.4f", name, p.Phase.Name, f.MaxError)
			}
			if len(f.Checks) != 7 {
				t.Errorf("%s/%s: %d per-metric checks, want 7", name, p.Phase.Name, len(f.Checks))
			}
			admitted := p.Active - len(p.Fleet.Dropped)
			if f.ExactSessions+f.SurrogateSessions != admitted {
				t.Errorf("%s/%s: %d exact + %d surrogate != %d admitted",
					name, p.Phase.Name, f.ExactSessions, f.SurrogateSessions, admitted)
			}
		}
	}
}

// TestFidelitySampleWorkerInvariant: the stratified exact sample is
// chosen before the pool starts, so the whole cross-check report —
// split, error bars, verdict — and the phase summaries must be
// identical for any worker count.
func TestFidelitySampleWorkerInvariant(t *testing.T) {
	sc := withFidelity(mustBuiltin(t, "steady"))
	var prev []byte
	for _, workers := range []int{1, 3, 7} {
		opt := tiny
		opt.Workers = workers
		r := mustRun(t, sc, opt)
		sums, roll := phaseDigest(r)
		fids := make([]*fleet.FidelityReport, len(r.Phases))
		for i, p := range r.Phases {
			fids[i] = p.Fleet.Fidelity
		}
		blob, err := json.Marshal(struct {
			Sums []fleet.PhaseSummary
			Roll fleet.Rollup
			Fids []*fleet.FidelityReport
		}{sums, roll, fids})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev, blob) {
			t.Fatalf("workers=%d changed the fidelity report:\n%s\nvs\n%s", workers, prev, blob)
		}
		prev = blob
	}
}

// TestRefutedSurrogateFailsRun: the failing half of refute-and-refine
// at the scenario layer. Tolerances no real model can meet force a
// refutation, and the run must fail loudly, naming the phase.
func TestRefutedSurrogateFailsRun(t *testing.T) {
	sc := mustBuiltin(t, "steady")
	sc.Fidelity = &Fidelity{
		ExactFraction: 0.25,
		Tolerance:     fleet.Tolerance{MTP: 1e-12, FPS: 1e-12, Bytes: 1e-12, Share: 1e-12},
	}
	_, err := Run(sc, tiny)
	if err == nil {
		t.Fatal("run with unmeetable tolerances succeeded")
	}
	if !strings.Contains(err.Error(), "surrogate refuted") {
		t.Errorf("error does not name the refutation: %v", err)
	}
	if !strings.Contains(err.Error(), "phase") {
		t.Errorf("error does not name the failing phase: %v", err)
	}
}

// TestExactOnlyStripsSurrogate: the -exact-only escape hatch removes
// the fast path — no fidelity block, and the science identical to a
// scenario that never declared [fidelity] at all.
func TestExactOnlyStripsSurrogate(t *testing.T) {
	plain := mustBuiltin(t, "steady")
	mixed := withFidelity(mustBuiltin(t, "steady"))

	opt := tiny
	opt.ExactOnly = true
	got := mustRun(t, mixed, opt)
	want := mustRun(t, plain, tiny)
	for _, p := range got.Phases {
		if p.Fleet.Fidelity != nil {
			t.Errorf("phase %s still carries a fidelity report under ExactOnly", p.Phase.Name)
		}
	}
	gs, gr := phaseDigest(got)
	ws, wr := phaseDigest(want)
	gb, _ := json.Marshal(struct {
		S []fleet.PhaseSummary
		R fleet.Rollup
	}{gs, gr})
	wb, _ := json.Marshal(struct {
		S []fleet.PhaseSummary
		R fleet.Rollup
	}{ws, wr})
	if !bytes.Equal(gb, wb) {
		t.Errorf("ExactOnly science differs from a fidelity-free run:\n%s\nvs\n%s", gb, wb)
	}
}

// leanEquivScenario is a plain growing timeline on the fast path: the
// one table row that keeps the surrogate on, so the fidelity reports
// are compared too.
const leanEquivScenario = `
[scenario]
name   = lean-equiv
mix    = mixed
frames = 12
warmup = 4

[fidelity]
exact-fraction  = 0.25
# Miniature phases yield single-digit exact samples; see withFidelity
# on why target_share needs a granularity-matched budget here.
tolerance.share = 0.3

[phase ramp]
duration = 30
sessions = 60

[phase peak]
duration = 30
sessions = 90
`

// TestLeanTimelineMatchesStandard: handing every session to a sink
// never changes the science. Every built-in (grid, admission,
// autoscale, per-phase mix and net-scale included) run through Run,
// which keeps nothing per session, and through the sink, which
// receives every admitted session, must produce byte-identical phase
// summaries, roll-up, autoscale report and fidelity reports. The
// built-ins run exact-only; leanEquivScenario keeps the surrogate on.
// mega-steady is left to the scale smoke, and giga-steady runs at a
// ten-thousandth of its population so its exact-only run stays small.
func TestLeanTimelineMatchesStandard(t *testing.T) {
	equiv, err := ParseString(leanEquivScenario)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		name string
		sc   Scenario
		opt  Options
	}
	rows := []row{{"lean-equiv", equiv, tiny}}
	exact := tiny
	exact.ExactOnly = true
	for _, name := range BuiltinNames() {
		if name == "mega-steady" {
			continue
		}
		sc := mustBuiltin(t, name)
		if name == "giga-steady" {
			sc.Phases = append([]Phase(nil), sc.Phases...)
			for i := range sc.Phases {
				sc.Phases[i].Sessions /= 10000
			}
		}
		rows = append(rows, row{name, sc, exact})
	}

	report := func(r Result) []byte {
		sums, roll := phaseDigest(r)
		fids := make([]*fleet.FidelityReport, len(r.Phases))
		for i, p := range r.Phases {
			fids[i] = p.Fleet.Fidelity
		}
		blob, err := json.Marshal(struct {
			Sums      []fleet.PhaseSummary
			Roll      fleet.Rollup
			Autoscale *fleet.AutoscaleReport
			Fids      []*fleet.FidelityReport
		}{sums, roll, r.Autoscale, fids})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, rw := range rows {
		t.Run(rw.name, func(t *testing.T) {
			plain := mustRun(t, rw.sc, rw.opt)
			for _, p := range plain.Phases {
				if kept := len(p.Fleet.Sessions); kept != 0 {
					t.Errorf("phase %q kept %d of %d sessions, want none", p.Phase.Name, kept, p.Active)
				}
			}
			// runKeeping fails the test unless the sink received every
			// admitted session of every phase.
			sunk, _ := runKeeping(t, rw.sc, rw.opt)
			if got, want := report(plain), report(sunk); !bytes.Equal(got, want) {
				t.Errorf("run without a sink diverged from the sink run:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestSeriesCarriesFidelityGauge: the flight recorder must surface
// the per-window fidelity split and error bound — the raw material of
// qvr-report's cross-check chart.
func TestSeriesCarriesFidelityGauge(t *testing.T) {
	sc := withFidelity(mustBuiltin(t, "steady"))
	reg := obs.New()
	rec := series.New(reg, 0)
	opt := tiny
	opt.Obs = reg
	opt.Series = rec
	r := mustRun(t, sc, opt)
	if _, err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rec.NDJSON(), []byte(`"fidelity"`)) {
		t.Error("series stream carries no fidelity gauge")
	}
	if len(r.Phases) == 0 {
		t.Fatal("no phases ran")
	}
}
