package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) with
	// statistics.median, computed in Python 3.
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
		n           int
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 10},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, 10},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 2},
		{[]float64{1, 2, 3}, 1, 2, 3, 3},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 3, 4.5, 5},
		{[]float64{7}, 7, 7, 7, 1},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if math.Abs(s.Q1-c.q1) > 1e-12 || math.Abs(s.Median-c.med) > 1e-12 || math.Abs(s.Q3-c.q3) > 1e-12 || s.N != c.n {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v n %d", c.xs, s, c.q1, c.med, c.q3, c.n)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestParseProcStat(t *testing.T) {
	data := []byte("cpu  100 5 20 800 10 1 4 60 7 0\ncpu0 50 2 10 400 5 0 2 30 3 0\nintr 12345\n")
	got, err := parseProcStat(data)
	if err != nil {
		t.Fatal(err)
	}
	// Guest time (7) is already inside user time and is not added again.
	if want := (cpuTimes{steal: 60, total: 100 + 5 + 20 + 800 + 10 + 1 + 4 + 60}); got != want {
		t.Errorf("parseProcStat = %+v, want %+v", got, want)
	}
	later := cpuTimes{steal: got.steal + 30, total: got.total + 300}
	if s := stealShare(got, later); math.Abs(s-0.1) > 1e-12 {
		t.Errorf("stealShare = %v, want 0.1", s)
	}
	if s := stealShare(later, later); s != 0 {
		t.Errorf("stealShare over no interval = %v, want 0", s)
	}
	for _, bad := range []string{"intr 1\n", "cpu 1 2 3\n", "cpu 1 2 3 x 5 6 7 8\n"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted malformed input", bad)
		}
	}
}

func TestStripWallAtAnyDepth(t *testing.T) {
	var tree any
	raw := `{"wall_seconds":1.5,"sessions":3,"phases":[{"summary":{"wall_seconds":2,"p99_mtp_ms":40}}],
		"scaling":[{"sessions_per_sec":9,"speedup":1,"efficiency":1,"workers":2}]}`
	if err := json.Unmarshal([]byte(raw), &tree); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(stripWall(tree))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"phases":[{"summary":{"p99_mtp_ms":40}}],"scaling":[{"workers":2}],"sessions":3}`
	if string(got) != want {
		t.Errorf("stripWall = %s, want %s", got, want)
	}
}

func TestDigestIgnoresWallClockOnly(t *testing.T) {
	type phase struct {
		P99  float64 `json:"p99_mtp_ms"`
		Wall float64 `json:"wall_seconds"`
	}
	base, err := digest([]phase{{P99: 40, Wall: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := digest([]phase{{P99: 40, Wall: 99}}); d != base {
		t.Error("digest changed with a wall-clock field")
	}
	if d, _ := digest([]phase{{P99: 40.000001, Wall: 1}}); d == base {
		t.Error("digest did not change with a simulated value")
	}
	if d, _ := digest(map[string]int{"a": 1, "b": 2}); len(d) != 64 {
		t.Errorf("digest %q is not a hex SHA-256", d)
	}
	if _, err := digest(func() {}); err == nil {
		t.Error("digest accepted a value JSON cannot encode")
	}
}

func TestSelfSecondsSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "scenario.Run", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "fleet.Run", Start: 10 * ms, End: 50 * ms, Parent: 0},
		{Name: "fleet.Result.Summarize", Start: 50 * ms, End: 60 * ms, Parent: 0},
		{Name: "pipeline.NewSession", Start: 20 * ms, End: 30 * ms, Parent: 1},
		{Name: "sim.Engine.Run", Start: 200 * ms, End: 230 * ms, Parent: -1},
	}
	got := selfSeconds(spans)
	want := map[string]float64{"scenario": 0.05, "fleet": 0.04, "pipeline": 0.01, "sim": 0.03}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d layers, want %d: %v", len(got), len(want), got)
	}
}

func TestTracerNestsAndWritesChromeTrace(t *testing.T) {
	tr := newTracer()
	tr.timed("capacity.Probe", func() {
		tr.timed("scenario.RunPoint", func() {})
	})
	if len(tr.spans) != 2 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 {
		t.Fatalf("spans = %+v, want a child under its parent", tr.spans)
	}
	var nilTracer *tracer
	nilTracer.timed("fleet.Run", func() {}) // an untraced path records nothing

	var buf bytes.Buffer
	if err := writeChrome(&buf, tr.spans, map[string]any{"workload": "capacity-probe"}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != 3 {
		t.Fatalf("%d trace events, want a metadata event and two spans", len(out.TraceEvents))
	}
	child := out.TraceEvents[2]
	if child.Ph != "X" || child.Name != "scenario.RunPoint" || child.Cat != "scenario" || child.Args["parent_name"] != "capacity.Probe" {
		t.Errorf("child event = %+v", child)
	}
}

func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perfbench: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, b.Workloads[i].Name, w.name)
		}
	}
}
