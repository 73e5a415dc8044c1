// Command perfbench is the repository's benchmark: one workload per
// run, as a closed loop from a single process — set-up, an untimed
// warm-up repetition, then timed repetitions — with every repetition's
// output checked. See README.md for the workloads and the metrics.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result: correctness,
// attempted and failed operations, and the metrics by name with their
// units. The line before it is the run record (host, timing quartiles,
// output digest).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "workload to run: paper-eval, mega-steady or capacity-probe")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long the timed repetitions run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the traced run's Chrome trace")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	// Workers, GOMAXPROCS and the host's CPU count are one number.
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)

	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, workers, *outDir)
	} else {
		res, err = measuredRun(w, *seed, *seconds, workers)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// metricsOf pairs every listed metric with its value; a metric with no
// value reads 0.
func metricsOf(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{values[s.name], s.unit}
	}
	return out
}

// record is the run's context, printed on the line before the result.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Host     hostInfo           `json:"host"`
	Timings  map[string]summary `json:"timings"`
	// Repetitions lists every timed repetition's seconds, in run order.
	Repetitions []float64 `json:"repetitions_s,omitempty"`
	Sessions    int       `json:"sessions_per_repetition"`
	Digest      string    `json:"digest"`
	// PaperError is paper-eval's paper_error, deterministic per seed.
	PaperError float64  `json:"paper_error,omitempty"`
	Failures   []string `json:"failures,omitempty"`
	TraceFile  string   `json:"trace_file,omitempty"`
}

// result is everything a run prints.
type result struct {
	record    record
	attempted int
	failed    int
	metrics   map[string]metric
}

// fail counts one failed operation and keeps its reason for the record.
func (r *result) fail(err error) {
	r.failed++
	r.record.Failures = append(r.record.Failures, err.Error())
	fmt.Fprintf(os.Stderr, "perfbench: failed operation: %v\n", err)
}

func printResult(f *os.File, r result) error {
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.record); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
}
