package surrogate_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"qvr/internal/fleet"
	"qvr/internal/framesink"
	"qvr/internal/pipeline"
	"qvr/internal/surrogate"
)

// testConfigs builds a handful of heterogeneous session configs the
// same way the fleet does (short sessions keep race-enabled runs
// fast).
func testConfigs(t *testing.T, n int) []pipeline.Config {
	t.Helper()
	mix, ok := fleet.MixByName("mixed")
	if !ok {
		t.Fatal("mixed mix missing")
	}
	specs, err := mix.Specs(n, pipeline.QVR, 12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]pipeline.Config, n)
	for i, sp := range specs {
		cfgs[i] = sp.Config
	}
	return cfgs
}

// exactSummary runs the full discrete-event simulation on one config.
func exactSummary(cfg pipeline.Config) framesink.Summary {
	var sink framesink.StatsSink
	sink.Reset(nil)
	pipeline.NewSession(cfg).RunSink(&sink)
	return sink.Summary()
}

// TestClassOfZeroesOnlySeed: two sessions that differ only by seed
// share a calibration class; the class key itself carries no seed.
func TestClassOfZeroesOnlySeed(t *testing.T) {
	cfgs := testConfigs(t, 2)
	m := surrogate.New()
	a := cfgs[0]
	b := a
	b.Seed = a.Seed + 99
	if m.ClassOf(a) != m.ClassOf(b) {
		t.Error("same config with different seeds landed in different classes")
	}
	if m.ClassOf(a).Seed != 0 {
		t.Errorf("class key kept seed %d, want 0", m.ClassOf(a).Seed)
	}
}

// TestUncalibratedFallsBackToExact: a class the model never saw must
// not fabricate numbers — RunSession on an empty table is the exact
// simulation, bit for bit.
func TestUncalibratedFallsBackToExact(t *testing.T) {
	cfg := testConfigs(t, 1)[0]
	m := surrogate.New()
	got, buf := m.RunSession(cfg, nil)
	want := exactSummary(cfg)
	if got.AvgMTPSeconds != want.AvgMTPSeconds || got.FPS != want.FPS ||
		got.AvgBytesSent != want.AvgBytesSent || got.Frames != want.Frames {
		t.Errorf("fallback summary %+v != exact %+v", got, want)
	}
	if !reflect.DeepEqual(got.MTPSorted, want.MTPSorted) {
		t.Error("fallback sample distribution differs from the exact run")
	}
	if len(buf) != want.Frames {
		t.Errorf("returned buffer holds %d samples, want %d", len(buf), want.Frames)
	}
}

// TestConcurrentFallbackMatchesExact runs the exact fallback from
// several goroutines at once, as fleet workers do: the recycled
// sessions must give every config its own exact result.
func TestConcurrentFallbackMatchesExact(t *testing.T) {
	cfgs := testConfigs(t, 16)
	m := surrogate.New()
	got := make([]framesink.Summary, len(cfgs))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cfgs); i += 4 {
				got[i], _ = m.RunSession(cfgs[i], nil)
			}
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if want := exactSummary(cfg); !reflect.DeepEqual(got[i], want) {
			t.Errorf("config %d: concurrent fallback %+v != exact %+v", i, got[i], want)
		}
	}
}

// TestCalibrationMatchesExactRuns: calibration runs its whole list on
// one reused session into one shared sample buffer, yet every exemplar
// must be the summary of its own fresh exact run. Each config gets a
// class of its own, so each prediction draws on exactly its exemplar.
func TestCalibrationMatchesExactRuns(t *testing.T) {
	cfgs := testConfigs(t, 6)
	for i := range cfgs {
		cfgs[i].Warmup += i
	}
	m := surrogate.New()
	m.Calibrate(cfgs)
	for i, cfg := range cfgs {
		want := exactSummary(cfg)
		got, _ := m.RunSession(cfg, nil)
		if got.FPS != want.FPS || got.AvgBytesSent != want.AvgBytesSent || got.AvgE1 != want.AvgE1 ||
			got.AvgResolutionReduction != want.AvgResolutionReduction || got.AvgEnergyJoules != want.AvgEnergyJoules {
			t.Errorf("config %d: exemplar %+v differs from the exact run %+v", i, got, want)
		}
		for _, v := range got.MTPSorted {
			if _, ok := slices.BinarySearch(want.MTPSorted, v); !ok {
				t.Fatalf("config %d: resampled MTP %v is not one of the exact run's samples", i, v)
			}
		}
	}
}

// TestRunSessionExtendsBuffer pins the worker-buffer contract both
// paths share with framesink.StatsSink: the returned slice is the
// caller's buffer extended in place — never just the session's own
// region — so a fleet worker can treat it as the accumulated sample
// buffer. (Truncating it here is exactly the bug that collapses a
// worker's merged percentiles to its last session.)
func TestRunSessionExtendsBuffer(t *testing.T) {
	cfgs := testConfigs(t, 2)
	prefix := []float64{0.001, 0.002, 0.003}

	for _, tc := range []struct {
		name      string
		calibrate bool
	}{{"fallback", false}, {"calibrated", true}} {
		m := surrogate.New()
		cfg := cfgs[0]
		if tc.calibrate {
			cal := cfg
			cal.Seed = cfg.Seed + 1
			m.Calibrate([]pipeline.Config{cal})
		}
		buf := append([]float64(nil), prefix...)
		sum, buf := m.RunSession(cfg, buf)
		if len(buf) != len(prefix)+sum.Frames {
			t.Errorf("%s: buffer grew to %d samples, want %d prior + %d session",
				tc.name, len(buf), len(prefix), sum.Frames)
		}
		if !reflect.DeepEqual(buf[:len(prefix)], prefix) {
			t.Errorf("%s: prior buffer contents clobbered: %v", tc.name, buf[:len(prefix)])
		}
		if !reflect.DeepEqual(sum.MTPSorted, buf[len(prefix):]) {
			t.Errorf("%s: summary region does not alias the buffer tail", tc.name)
		}
	}
}

// TestBufferContract pins the one sample-buffer contract the fleet's
// worker loop relies on: framesink.StatsSink (via Reset/Buffer) and
// Model.RunSession (calibrated and uncalibrated) take turns on one
// buffer, and each returns the buffer it was given extended by exactly
// the session's measured frames, with the Summary's samples being
// precisely that new region.
func TestBufferContract(t *testing.T) {
	cfgs := testConfigs(t, 6)
	m := surrogate.New()
	m.Calibrate([]pipeline.Config{cfgs[1], cfgs[3]}) // cfgs[5]'s class stays uncalibrated
	var buf []float64
	var sums []framesink.Summary
	var regions [][]float64
	for i, cfg := range cfgs {
		in := append([]float64(nil), buf...)
		var sum framesink.Summary
		if i%2 == 0 {
			var sink framesink.StatsSink
			sink.Reset(buf)
			pipeline.NewSession(cfg).RunSink(&sink)
			sum = sink.Summary()
			buf = sink.Buffer()
		} else {
			sum, buf = m.RunSession(cfg, buf)
		}
		if len(buf) != len(in)+cfg.MeasuredFrames() {
			t.Fatalf("session %d: buffer holds %d samples, want %d prior + %d measured",
				i, len(buf), len(in), cfg.MeasuredFrames())
		}
		if !slices.Equal(buf[:len(in)], in) {
			t.Fatalf("session %d: earlier samples changed", i)
		}
		region := buf[len(in):]
		if len(sum.MTPSorted) != len(region) || cap(sum.MTPSorted) != len(region) ||
			(len(region) > 0 && &sum.MTPSorted[0] != &region[0]) {
			t.Fatalf("session %d: Summary.MTPSorted is not the session's capacity-clipped buffer region", i)
		}
		sums = append(sums, sum)
		regions = append(regions, append([]float64(nil), region...))
	}
	for i, sum := range sums {
		if !slices.Equal(sum.MTPSorted, regions[i]) {
			t.Errorf("session %d: a later session overwrote its samples", i)
		}
	}
}

// TestPredictionIsPure: the prediction is a pure function of (config,
// calibration list) — two independently calibrated models agree
// exactly, and repeated predictions never drift. This is what lets
// the fast path inherit the worker-count determinism contract.
func TestPredictionIsPure(t *testing.T) {
	cfg := testConfigs(t, 1)[0]
	cal := cfg
	cal.Seed = cfg.Seed + 7

	predict := func() framesink.Summary {
		m := surrogate.New()
		m.Calibrate([]pipeline.Config{cal})
		sum, _ := m.RunSession(cfg, nil)
		return sum
	}
	a, b := predict(), predict()
	if !reflect.DeepEqual(a, b) {
		t.Error("two identically calibrated models disagree")
	}

	m := surrogate.New()
	m.Calibrate([]pipeline.Config{cal})
	s1, buf := m.RunSession(cfg, nil)
	s2, _ := m.RunSession(cfg, buf[:len(buf):len(buf)])
	if s1.AvgMTPSeconds != s2.AvgMTPSeconds || !reflect.DeepEqual(s1.MTPSorted, s2.MTPSorted) {
		t.Error("repeated prediction of the same session drifted")
	}
}

// TestPredictionResamplesExemplar: a calibrated prediction copies the
// exemplar's scalar metrics and resamples its motion-to-photon
// distribution — every drawn sample is one of the exemplar's own, and
// different session seeds draw different traces.
func TestPredictionResamplesExemplar(t *testing.T) {
	cfg := testConfigs(t, 1)[0]
	cal := cfg
	cal.Seed = cfg.Seed + 7
	ex := exactSummary(cal)

	m := surrogate.New()
	m.Calibrate([]pipeline.Config{cal})
	if m.Classes() != 1 {
		t.Fatalf("calibration built %d classes, want 1", m.Classes())
	}
	sum, _ := m.RunSession(cfg, nil)
	if sum.FPS != ex.FPS || sum.AvgBytesSent != ex.AvgBytesSent {
		t.Errorf("prediction fps/bytes %.3f/%.0f != exemplar %.3f/%.0f",
			sum.FPS, sum.AvgBytesSent, ex.FPS, ex.AvgBytesSent)
	}
	pool := map[float64]bool{}
	for _, v := range ex.MTPSorted {
		pool[v] = true
	}
	for _, v := range sum.MTPSorted {
		if !pool[v] {
			t.Fatalf("resampled value %v is not one of the exemplar's samples", v)
		}
	}

	other := cfg
	other.Seed = cfg.Seed + 1000
	osum, _ := m.RunSession(other, nil)
	if reflect.DeepEqual(sum.MTPSorted, osum.MTPSorted) {
		t.Error("different seeds drew identical traces; resampling is not seeded")
	}
}
