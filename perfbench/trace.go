package main

import (
	"encoding/json"
	"io"
	"strings"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers. Spans stay in memory until the run ends; the traced run is
// single-goroutine, so a span's parent is whatever span was open when
// it began.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of indices of spans not yet ended
}

type span struct {
	Name   string
	Start  time.Duration // since origin
	End    time.Duration
	Parent int // index of the enclosing span, -1 at top level
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns the function that ends it. A nil
// tracer records nothing, so untraced code paths call it freely.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.origin)
		t.open = t.open[:len(t.open)-1]
	}
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	end := t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	end()
	return d
}

// layerOf maps a span name to its layer: the text before the first
// dot ("fleet.Run" -> "fleet").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfSeconds sums, per layer, each span's duration minus the part of
// it that its child spans cover. Spans of one goroutine nest and do not
// overlap, so the covered part is the sum of the children's durations.
func selfSeconds(spans []span) map[string]float64 {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[layerOf(s.Name)] += (s.End - s.Start - child[i]).Seconds()
	}
	return out
}

// chromeEvent is one Chrome trace-event record: complete ("X") events
// in microseconds, the format qvr-trace writes and Perfetto opens.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace, each event naming
// its parent span in args. Spans are recorded in start order.
func writeChrome(w io.Writer, spans []span, meta map[string]any) error {
	events := make([]chromeEvent, 0, len(spans)+1)
	events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: 1, TID: 1,
		Args: map[string]any{"name": "qvr perfbench"}})
	for i, s := range spans {
		args := map[string]any{"id": i}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
			args["parent_name"] = spans[s.Parent].Name
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X", PID: 1, TID: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata,omitempty"`
	}{events, meta})
}
