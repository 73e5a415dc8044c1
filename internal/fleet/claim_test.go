package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"qvr/internal/gpu"
	"qvr/internal/pipeline"
)

// skewedSpecs is a population whose cost is all at the front: costly
// Q-VR sessions first, cheap local-only ones after, with measured
// frame counts that differ from session to session. One local-only
// session leaves Frames at zero, so it measures the 300-frame default:
// the population's largest, which only MeasuredFrames (not the raw
// field) reports. Workers that claim indices in turn end up with very
// different session counts and sample volumes here.
func skewedSpecs(t *testing.T) []SessionSpec {
	t.Helper()
	specs := testSpecs(t, 23)
	for i := range specs {
		cfg := &specs[i].Config
		switch {
		case i < 6:
			cfg.Frames, cfg.Warmup = 40+5*i, 10
		case i == 15:
			cfg.Design, cfg.Frames, cfg.Warmup = pipeline.LocalOnly, 0, 2
		default:
			cfg.Design, cfg.Frames, cfg.Warmup = pipeline.LocalOnly, 2+i%7, 1
		}
	}
	return specs
}

// TestClaimingContract: the pool claims session indices dynamically,
// so which worker runs a session, and how many sessions each worker
// runs, changes with the pool size and the schedule. None of it may
// reach a result. On a skewed population, with admission queueing and
// with the mixed-fidelity fast path, every pool size must give the
// same summary, contention and fidelity report, and the Each sink
// must see every admitted index exactly once, with the same results.
func TestClaimingContract(t *testing.T) {
	specs := skewedSpecs(t)
	if specs[15].Config.MeasuredFrames() != 300 {
		t.Fatalf("zero-Frames session measures %d frames, want the 300-frame default", specs[15].Config.MeasuredFrames())
	}
	cluster := gpu.DefaultRemote()
	cluster.GPUs = 2
	runs := map[string]func() Config{
		"exact": func() Config { return Config{} },
		"admission": func() Config {
			return Config{Admission: Admission{Cluster: cluster}, CellCapacity: 4}
		},
		"fidelity": func() Config { return Config{Fidelity: mixedFidelity()} },
	}
	for _, name := range []string{"exact", "admission", "fidelity"} {
		type outcome struct {
			sum        Summary
			contention Contention
			dropped    int
			fidelity   *FidelityReport
			frames     int64
			sessions   []SessionResult
		}
		var ref *outcome
		for _, workers := range []int{1, 2, 3, 8, len(specs) + 5} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			cfg := runs[name]()
			cfg.Specs, cfg.Workers = specs, workers
			got := make([]SessionResult, len(specs))
			calls := make([]int, len(specs))
			cfg.Each = func(i int, sr SessionResult) {
				got[i] = sr
				calls[i]++
			}
			r := Run(cfg)
			admitted := len(specs) - len(r.Dropped)
			for i, k := range calls {
				want := 0
				if i < admitted {
					want = 1
				}
				if k != want {
					t.Errorf("%s: Each called %d times for index %d, want %d", label, k, i, want)
				}
			}
			s := r.Summarize()
			s.Workers, s.WallSeconds = 0, 0
			o := &outcome{s, r.Contention, len(r.Dropped), r.Fidelity, r.TotalMeasuredFrames(), got[:admitted]}
			if ref == nil {
				ref = o
				if s.Sessions != admitted || s.P99MTPMs <= 0 {
					t.Fatalf("%s: summary %+v does not cover %d admitted sessions", label, s, admitted)
				}
				if (name == "fidelity") != (r.Fidelity != nil) {
					t.Fatalf("%s: fidelity report %v on a %s run", label, r.Fidelity, name)
				}
				continue
			}
			if !reflect.DeepEqual(ref.sum, o.sum) {
				t.Errorf("%s: summary diverged:\n%+v\nvs\n%+v", label, o.sum, ref.sum)
			}
			if !reflect.DeepEqual(ref.contention, o.contention) || ref.dropped != o.dropped {
				t.Errorf("%s: contention diverged: %+v (%d dropped) vs %+v (%d dropped)",
					label, o.contention, o.dropped, ref.contention, ref.dropped)
			}
			if !reflect.DeepEqual(ref.fidelity, o.fidelity) {
				t.Errorf("%s: fidelity report diverged:\n%+v\nvs\n%+v", label, o.fidelity, ref.fidelity)
			}
			if ref.frames != o.frames {
				t.Errorf("%s: measured frames %d vs %d", label, o.frames, ref.frames)
			}
			if !reflect.DeepEqual(ref.sessions, o.sessions) {
				t.Errorf("%s: per-session results diverged", label)
			}
		}
	}
}

// TestSampleBufsNeverRegrow: a worker that outgrows its buffer starts
// a new one instead of copying, so every session's samples stay in
// place, in one of the buffers rollUp merges, and those buffers hold
// each sample once.
func TestSampleBufsNeverRegrow(t *testing.T) {
	var b sampleBufs
	var regions [][]float64
	for s := 0; s < 7; s++ {
		b.reserve(3, 2)
		start := len(b.cur)
		for f := 0; f < 1+s%3; f++ {
			b.cur = append(b.cur, float64(10*s+f))
		}
		regions = append(regions, b.cur[start:])
	}
	bufs := append(b.full, b.cur)
	total := 0
	for _, buf := range bufs {
		total += len(buf)
		if cap(buf) != 6 {
			t.Errorf("buffer cap %d, want 6 (2 sessions x 3 frames)", cap(buf))
		}
	}
	if want := 1 + 2 + 3 + 1 + 2 + 3 + 1; total != want {
		t.Errorf("buffers hold %d samples, want %d", total, want)
	}
	for s, r := range regions {
		held := false
		for _, buf := range bufs {
			for k := range buf {
				held = held || &buf[k] == &r[0]
			}
		}
		if !held {
			t.Errorf("session %d's samples are not in any buffer: a buffer was regrown by copying", s)
		}
		for f, v := range r {
			if v != float64(10*s+f) {
				t.Errorf("session %d sample %d reads %v: a later session overwrote it", s, f, v)
			}
		}
	}

	var none sampleBufs
	none.reserve(0, 5)
	if none.cur != nil || none.full != nil {
		t.Error("reserving room for zero samples allocated a buffer")
	}
}
