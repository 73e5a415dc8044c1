package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qvr/internal/framesink"
	"qvr/internal/gpu"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
	"qvr/internal/surrogate"
)

// mixedFidelity builds a fresh fast-path config per run: the exemplar
// table is per-run state, so two runs must never share a model.
func mixedFidelity() *Fidelity {
	return &Fidelity{Runner: surrogate.New(), ExactFraction: 0.5}
}

// TestFidelityWorkerCountInvariance extends the engine's core
// contract to the mixed-fidelity path: the stratified exact sample,
// every per-session result, and the whole cross-check report must be
// identical for any pool size.
func TestFidelityWorkerCountInvariance(t *testing.T) {
	specs := testSpecs(t, 40)
	var prevD [][4]float64
	var prevF *FidelityReport
	for _, workers := range []int{1, 3, 8} {
		r := Run(Config{Specs: specs, Workers: workers, Fidelity: mixedFidelity()})
		if r.Fidelity == nil {
			t.Fatalf("workers=%d: mixed run carries no fidelity report", workers)
		}
		d := digest(r)
		if prevD != nil && !reflect.DeepEqual(prevD, d) {
			t.Fatalf("workers=%d changed per-session results on the fast path", workers)
		}
		if prevF != nil && !reflect.DeepEqual(prevF, r.Fidelity) {
			t.Fatalf("workers=%d changed the fidelity report:\n%+v\nvs\n%+v", workers, prevF, r.Fidelity)
		}
		prevD, prevF = d, r.Fidelity
	}
}

// TestFidelitySplitBooks checks the stratified sample's arithmetic:
// exact + surrogate sessions account for the whole population, every
// calibration class contributes at least one exact session, and the
// declared fraction is echoed back.
func TestFidelitySplitBooks(t *testing.T) {
	specs := testSpecs(t, 32)
	classes := map[pipeline.Config]bool{}
	m := surrogate.New()
	for _, sp := range specs {
		classes[m.ClassOf(sp.Config)] = true
	}

	r := Run(Config{Specs: specs, Workers: 4, Fidelity: mixedFidelity()})
	f := r.Fidelity
	if f == nil {
		t.Fatal("mixed run carries no fidelity report")
	}
	if f.ExactSessions+f.SurrogateSessions != len(specs) {
		t.Errorf("split books don't balance: %d exact + %d surrogate != %d sessions",
			f.ExactSessions, f.SurrogateSessions, len(specs))
	}
	if f.ExactSessions < len(classes) {
		t.Errorf("exact sample %d sessions < %d classes; a class went uncross-checked",
			f.ExactSessions, len(classes))
	}
	if f.CalibrationSessions < len(classes) {
		t.Errorf("calibration ran %d sessions for %d classes", f.CalibrationSessions, len(classes))
	}
	if f.ExactFraction != 0.5 {
		t.Errorf("reported fraction %v, want 0.5", f.ExactFraction)
	}
	if len(f.Checks) != 7 {
		t.Errorf("want 7 per-metric checks, got %d", len(f.Checks))
	}
	if f.Refuted {
		t.Errorf("healthy surrogate refuted: max error %.4f, checks %+v", f.MaxError, f.Checks)
	}
}

// TestLeanExactOnlyMatchesStandard: a Source-driven run with no
// fidelity config runs every session on the exact simulator and must
// reproduce the Specs run exactly, through its Each sink or with no
// sink at all. This is the regression test for
// the sample-buffer truncation bug, where a streamed worker's merged
// percentiles silently collapsed to its last session's samples.
func TestLeanExactOnlyMatchesStandard(t *testing.T) {
	checkSourceMatchesSpecs(t, testSpecs(t, 24), func() Config { return Config{Workers: 3} })
}

// TestLeanFidelityMatchesStandard: the same equivalence on the mixed
// path — identical population and fidelity config must yield the same
// summary AND the same cross-check report through either field.
func TestLeanFidelityMatchesStandard(t *testing.T) {
	checkSourceMatchesSpecs(t, testSpecs(t, 36), func() Config {
		return Config{Workers: 3, Fidelity: mixedFidelity()}
	})
}

// TestSourceMatchesSpecs extends the equivalence to the remaining
// layers: admission with drops, cell sharing, tracing and counters.
// The grid case, which needs internal/edge, is
// TestSourceMatchesSpecsOnGrid.
func TestSourceMatchesSpecs(t *testing.T) {
	specs := testSpecs(t, 36)
	cluster := gpu.DefaultRemote().WithGPUs(2)
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"admission", func() Config {
			return Config{Workers: 3, Admission: Admission{Cluster: cluster}, Obs: obs.New()}
		}},
		{"cells", func() Config { return Config{Workers: 3, CellCapacity: 4, Fidelity: mixedFidelity()} }},
		{"tracer", func() Config {
			return Config{Workers: 3, Tracer: obs.NewTracer(5), TraceLabel: "t", Obs: obs.New()}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSourceMatchesSpecs(t, specs, tc.cfg) })
	}
}

// checkSourceMatchesSpecs runs specs through Config.Specs, through a
// SpecSource with an Each sink at workers 1 and 4, and through a
// SpecSource with no sink, each on a fresh cfg(). The population field
// changes nothing: the sink receives exactly the Specs run's Sessions,
// each index once (in index order on one worker), and neither Source
// run fills Result.Sessions. Retention changes nothing either: every
// Source run must give the Specs run's summary, contention report,
// fidelity report, frame books, traces and counters.
func checkSourceMatchesSpecs(t *testing.T, specs []SessionSpec, cfg func() Config) {
	t.Helper()
	specCfg := cfg()
	specCfg.Specs = specs
	specRun := Run(specCfg)
	if len(specRun.Sessions) != len(specs)-len(specRun.Dropped) {
		t.Fatalf("Specs run kept %d sessions, want %d", len(specRun.Sessions), len(specs)-len(specRun.Dropped))
	}
	src := &SpecSource{
		N:              len(specs),
		MeasuredFrames: specs[0].Config.MeasuredFrames(),
		At:             func(i int) SessionSpec { return specs[i] },
	}
	type sourceRun struct {
		name string
		cfg  Config
		run  Result
	}
	var runs []sourceRun
	for _, workers := range []int{1, 4} {
		c := cfg()
		c.Source, c.Workers = src, workers
		got := make([]SessionResult, len(specRun.Sessions))
		calls := make([]int, len(got))
		var order []int
		c.Each = func(i int, sr SessionResult) {
			got[i] = sr
			calls[i]++
			if workers == 1 {
				order = append(order, i)
			}
		}
		name := fmt.Sprintf("Source+Each workers=%d", workers)
		r := Run(c)
		for i, k := range calls {
			if k != 1 {
				t.Errorf("%s: sink called %d times for index %d", name, k, i)
			}
		}
		for k, i := range order {
			if i != k {
				t.Fatalf("%s: sink call %d was for index %d; one worker must go in index order", name, k, i)
			}
		}
		if !reflect.DeepEqual(specRun.Sessions, got) {
			t.Errorf("%s: the sink's %d sessions diverged from the Specs run's", name, len(got))
		}
		if len(r.Sessions) != 0 {
			t.Errorf("%s: kept %d sessions besides the sink, want none", name, len(r.Sessions))
		}
		runs = append(runs, sourceRun{name, c, r})
	}
	plainCfg := cfg()
	plainCfg.Source = src
	plainRun := Run(plainCfg)
	if len(plainRun.Sessions) != 0 {
		t.Errorf("Source run without a sink kept %d sessions, want none", len(plainRun.Sessions))
	}
	runs = append(runs, sourceRun{"Source", plainCfg, plainRun})

	specSum := specRun.Summarize()
	specSum.Workers, specSum.WallSeconds = 0, 0
	for _, c := range runs {
		sum := c.run.Summarize()
		sum.Workers, sum.WallSeconds = 0, 0
		if !reflect.DeepEqual(specSum, sum) {
			t.Errorf("%s run: summaries diverged:\n%+v\nvs\n%+v", c.name, specSum, sum)
		}
		if !reflect.DeepEqual(specRun.Contention, c.run.Contention) || !reflect.DeepEqual(specRun.Dropped, c.run.Dropped) {
			t.Errorf("%s run: contention diverged:\n%+v %d dropped\nvs\n%+v %d dropped",
				c.name, specRun.Contention, len(specRun.Dropped), c.run.Contention, len(c.run.Dropped))
		}
		if !reflect.DeepEqual(specRun.Fidelity, c.run.Fidelity) {
			t.Errorf("%s run: fidelity reports diverged:\n%+v\nvs\n%+v", c.name, specRun.Fidelity, c.run.Fidelity)
		}
		if specRun.TotalMeasuredFrames() != c.run.TotalMeasuredFrames() || specRun.TotalMeasuredFrames() <= 0 {
			t.Errorf("%s run: measured frames %d vs %d", c.name, specRun.TotalMeasuredFrames(), c.run.TotalMeasuredFrames())
		}
		if specCfg.Tracer != nil && !reflect.DeepEqual(specCfg.Tracer.Doc(), c.cfg.Tracer.Doc()) {
			t.Errorf("%s run: traces diverged", c.name)
		}
		if specCfg.Obs != nil {
			if !reflect.DeepEqual(specCfg.Obs.Snapshot(), c.cfg.Obs.Snapshot()) {
				t.Errorf("%s run: counter snapshots diverged", c.name)
			}
			if _, err := obs.Refute(c.cfg.Obs.Snapshot(), Expectations(c.run)); err != nil {
				t.Errorf("%s run's counters do not reconcile: %v", c.name, err)
			}
		}
	}
}

// biasedModel wraps the real surrogate and inflates every
// motion-to-photon prediction — the injected model drift the
// refute-and-refine harness exists to catch.
type biasedModel struct {
	*surrogate.Model
	bias float64
}

func (b biasedModel) RunSession(cfg pipeline.Config, buf []float64) (framesink.Summary, []float64) {
	start := len(buf)
	sum, buf := b.Model.RunSession(cfg, buf)
	// The summary's sorted region aliases the buffer tail; scaling in
	// place keeps it sorted and skews both books the same way.
	for i := start; i < len(buf); i++ {
		buf[i] *= b.bias
	}
	sum.AvgMTPSeconds *= b.bias
	return sum, buf
}

// TestRefuteCatchesBiasedModel injects a surrogate whose latency
// predictions run 60% hot: the cross-check must refute the run and
// the obs gate must turn the report into a loud error.
func TestRefuteCatchesBiasedModel(t *testing.T) {
	specs := testSpecs(t, 24)
	r := Run(Config{Specs: specs, Workers: 4, Fidelity: &Fidelity{
		Runner:        biasedModel{Model: surrogate.New(), bias: 1.6},
		ExactFraction: 0.25,
	}})
	f := r.Fidelity
	if f == nil {
		t.Fatal("mixed run carries no fidelity report")
	}
	if !f.Refuted {
		t.Fatalf("60%% latency bias not refuted: max error %.4f, checks %+v", f.MaxError, f.Checks)
	}
	if f.MaxError < 0.3 {
		t.Errorf("max error %.4f implausibly small for a 1.6x bias", f.MaxError)
	}
	err := obs.RefuteSurrogate(r.RefuteChecks())
	if err == nil {
		t.Fatal("obs.RefuteSurrogate passed a refuted report")
	}
	if !strings.Contains(err.Error(), "mtp") {
		t.Errorf("refutation error does not name the drifted metric: %v", err)
	}
}

// TestRefuteChecksNilForExactRuns: the gate must be safe to call
// unconditionally — a pure-exact run contributes no checks and
// RefuteSurrogate(nil) passes.
func TestRefuteChecksNilForExactRuns(t *testing.T) {
	r := Run(Config{Specs: testSpecs(t, 4), Workers: 2})
	if checks := r.RefuteChecks(); checks != nil {
		t.Errorf("exact run produced %d fidelity checks, want none", len(checks))
	}
	if err := obs.RefuteSurrogate(nil); err != nil {
		t.Errorf("RefuteSurrogate(nil) = %v, want nil", err)
	}
}
