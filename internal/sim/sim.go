// Package sim implements the discrete-event simulation engine that the
// Q-VR reproduction runs on.
//
// Every hardware unit in the modeled system — the mobile GPU, the video
// decoder, the network link, the UCA composition unit, the remote
// render cluster — is a contended Resource attached to a shared Engine.
// Frame pipelines are expressed as chains of scheduled events and
// resource requests; overlap between stages (remote rendering, network
// streaming and video decode proceeding in parallel with local
// rendering, as in Fig. 4 of the paper) emerges from the event order
// rather than being hard-coded.
//
// The engine is deliberately single-threaded: determinism matters more
// than wall-clock speed for an architecture study, and a simulated
// second costs far less than a real one.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a point in simulated time, in seconds.
type Time float64

// Ms constructs a Time from milliseconds.
func Ms(ms float64) Time { return Time(ms / 1000) }

// Us constructs a Time from microseconds.
func Us(us float64) Time { return Time(us / 1e6) }

// Milliseconds reports t in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) * 1000 }

// Seconds reports t in seconds.
func (t Time) Seconds() float64 { return float64(t) }

func (t Time) String() string { return fmt.Sprintf("%.3fms", t.Milliseconds()) }

type event struct {
	at  Time
	seq int64 // tie-break so same-time events run in schedule order
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator: a virtual clock plus an ordered
// queue of pending events. The zero value is an engine with the clock
// at zero, ready to use.
type Engine struct {
	now   Time
	queue eventHeap
	seq   int64
	steps int64
	// free recycles executed event structs: a session schedules a
	// handful of events per simulated frame, and pooling them keeps
	// the hot loop allocation-free after the first few frames.
	free []*event
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.Reset()
	return e
}

// Reset rewinds the engine to time zero with an empty queue, as
// NewEngine returns it. Pending events are dropped; their structs, and
// every pooled one, stay in the pool for the next run.
func (e *Engine) Reset() {
	for i, ev := range e.queue {
		ev.fn = nil
		e.free = append(e.free, ev)
		e.queue[i] = nil
	}
	*e = Engine{queue: e.queue[:0], free: e.free}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() int64 { return e.steps }

// Schedule runs fn after delay. A negative delay is treated as zero;
// same-time events run in the order they were scheduled.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = e.now+delay, e.seq, fn
	} else {
		ev = &event{at: e.now + delay, seq: e.seq, fn: fn}
	}
	heap.Push(&e.queue, ev)
}

// At runs fn at absolute simulated time t (or immediately if t is in
// the past).
func (e *Engine) At(t Time, fn func()) {
	e.Schedule(t-e.now, fn)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	e.steps++
	// Recycle before running: fn may schedule new events, and handing
	// it this struct back immediately keeps the pool at the queue's
	// high-water mark.
	fn := ev.fn
	ev.fn = nil
	e.free = append(e.free, ev)
	fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t. Events scheduled beyond t stay pending.
func (e *Engine) RunUntil(t Time) {
	for e.queue.Len() > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.queue.Len() }
