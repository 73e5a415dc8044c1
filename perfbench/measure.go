package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

const (
	// setupBatch is the shortest timed batch of set-ups: a set-up far
	// below a millisecond is repeated until one batch sits well above
	// clock resolution, and setup_s is the median over setupSamples
	// batches of the per-set-up time.
	setupBatch   = 50 * time.Millisecond
	setupSamples = 15
	// minRepetitions keeps a median and quartiles meaningful when one
	// repetition is long against the run's length.
	minRepetitions = 3
)

// endToEndMetrics lists the end-to-end metrics with their units, in
// the order BENCHMARK.json declares them.
var endToEndMetrics = []metricSpec{
	{"sessions_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"allocs_per_session", "count"},
	{"bytes_per_session", "B"},
}

// timeSetup times the workload's set-up in batches sized from first,
// the duration of one set-up. The collector is paused inside each batch
// and run between them, so the figure is the set-up's own work rather
// than where the collector's cycles happened to fall.
func timeSetup(w workload, seed int64, workers int, first time.Duration) (summary, error) {
	batch := 1
	if first < setupBatch {
		batch = int(setupBatch/max(first, time.Microsecond)) + 1
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	xs := make([]float64, 0, setupSamples)
	for range setupSamples {
		runtime.GC()
		t := time.Now()
		for range batch {
			if _, err := w.setup(seed, workers); err != nil {
				return summary{}, err
			}
		}
		xs = append(xs, time.Since(t).Seconds()/float64(batch))
	}
	runtime.GC()
	return summarize(xs), nil
}

// measuredRun is the end-to-end measurement: an untimed warm-up
// repetition whose output every later repetition must repeat, timed
// repetitions for the run's length, then the set-up timing — last, so
// that its garbage cannot raise the run's memory high-water mark.
func measuredRun(w workload, seed int64, seconds float64, workers int) (result, error) {
	cpu0 := readCPUTimes()
	res := result{record: record{Workload: w.name, Seed: seed, Timings: map[string]summary{}}}
	start := time.Now()
	j, err := w.setup(seed, workers)
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	first := time.Since(start)

	runtime.GC()
	ref, refDigest := res.warmUp(j)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var times []float64
	var outs []outcome
	begin := time.Now()
	for tries := 0; time.Since(begin).Seconds() < seconds || tries < minRepetitions; tries++ {
		t := time.Now()
		out, err := j.run(nil, nil)
		d := time.Since(t).Seconds()
		res.attempted++
		if err != nil {
			res.fail(err)
			continue
		}
		times = append(times, d)
		outs = append(outs, out)
	}
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}

	// Digests are taken after the timed loop so that the benchmark's own
	// JSON work stays out of the allocation figures.
	sessions := 0
	for _, out := range outs {
		sessions += out.sessions
		if err := sameOutput(out, ref, refDigest); err != nil {
			res.fail(err)
		}
	}

	setup, err := timeSetup(w, seed, workers, first)
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	res.record.Timings["setup_s"] = setup

	rep := summarize(times)
	res.record.Timings["repetition_s"] = rep
	res.record.Repetitions = times
	res.record.Host = newHostInfo(workers, stealShare(cpu0, readCPUTimes()))
	res.metrics = metricsOf(endToEndMetrics, map[string]float64{
		"sessions_per_s":     ratio(float64(ref.sessions), rep.Median),
		"setup_s":            setup.Median,
		"peak_rss_mb":        rss,
		"allocs_per_session": ratio(float64(m1.Mallocs-m0.Mallocs), float64(sessions)),
		"bytes_per_session":  ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(sessions)),
	})
	return res, nil
}

// warmUp runs the untimed first repetition and returns it with its
// digest: the reference every later repetition must reproduce.
func (r *result) warmUp(j job) (outcome, string) {
	ref, err := j.run(nil, nil)
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("warm-up: %w", err))
	}
	d, err := digest(ref.report)
	if err != nil {
		r.fail(err)
	}
	r.record.Digest, r.record.Sessions = d, ref.sessions
	if ref.paperError >= 0 {
		r.record.PaperError = ref.paperError
	}
	return ref, d
}

// sameOutput checks a repetition against the warm-up's reference.
func sameOutput(out, ref outcome, refDigest string) error {
	d, err := digest(out.report)
	switch {
	case err != nil:
		return err
	case out.sessions != ref.sessions:
		return fmt.Errorf("repetition simulated %d sessions, warm-up %d", out.sessions, ref.sessions)
	case d != refDigest:
		return fmt.Errorf("repetition output digest %s differs from warm-up %s", d, refDigest)
	}
	return nil
}

func newHostInfo(workers int, steal float64) hostInfo {
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), CPUModel: cpuModel(), StealShare: steal,
	}
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
