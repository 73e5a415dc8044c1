package sim

// Resource models a contended hardware unit with a fixed number of
// identical servers (capacity): one mobile GPU, two UCA units, one
// video decoder, one radio link, and so on. Jobs are served FIFO; a job
// occupies one server for its service time and then invokes its
// completion callback.
//
// Resource is the mechanism behind the paper's contention analysis
// (Fig. 4-3): when composition and ATW run on the GPU Resource they
// delay queued rendering jobs, and when they run on a separate UCA
// Resource the contention disappears.
type Resource struct {
	engine   *Engine
	name     string
	capacity int
	busy     int
	// queue is a head-indexed FIFO: dequeuing advances head instead of
	// reslicing, and the slice rewinds to its start whenever it drains,
	// so the backing array is reused for the whole run.
	queue []*job
	head  int
	// free recycles job structs (and their one-time completion
	// closures), keeping the per-request hot path allocation-free
	// after warm-up.
	free []*job

	// Accounting for utilization reports.
	busyTime   Time
	lastChange Time
	served     int64
}

type job struct {
	service Time
	onStart func()
	onDone  func()
	// complete is bound once per pooled job: it releases the server,
	// returns the job to the pool, then runs onDone and re-dispatches.
	complete func()
}

// NewResource creates a resource with the given number of servers
// attached to engine. Capacity must be at least 1.
func NewResource(engine *Engine, name string, capacity int) *Resource {
	r := &Resource{}
	r.Reset(engine, name, capacity)
	return r
}

// Reset re-initializes the resource in place, as NewResource returns
// it, attached to engine. Queued jobs are dropped back into the job
// pool, which the resource keeps along with the queue's backing array.
// Call it only with no job in service: in practice, after engine has
// run dry or been Reset.
func (r *Resource) Reset(engine *Engine, name string, capacity int) {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	for i := r.head; i < len(r.queue); i++ {
		j := r.queue[i]
		j.onStart, j.onDone = nil, nil
		r.free = append(r.free, j)
		r.queue[i] = nil
	}
	*r = Resource{engine: engine, name: name, capacity: capacity, queue: r.queue[:0], free: r.free}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Request enqueues a job needing the given service time. onDone runs
// when the job completes; it may be nil.
func (r *Resource) Request(service Time, onDone func()) {
	r.RequestWithStart(service, nil, onDone)
}

// RequestWithStart enqueues a job and additionally invokes onStart at
// the moment a server is granted (used to timestamp queueing delay).
func (r *Resource) RequestWithStart(service Time, onStart, onDone func()) {
	if service < 0 {
		service = 0
	}
	j := r.newJob()
	j.service, j.onStart, j.onDone = service, onStart, onDone
	r.queue = append(r.queue, j)
	r.dispatch()
}

// newJob takes a job from the pool or builds one, binding its
// completion closure exactly once.
func (r *Resource) newJob() *job {
	if n := len(r.free); n > 0 {
		j := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return j
	}
	j := &job{}
	j.complete = func() {
		r.accountBusy()
		r.busy--
		r.served++
		// Recycle before the callback: onDone may request this
		// resource again and can safely reuse the struct, because the
		// callback itself is held locally.
		done := j.onDone
		j.onStart, j.onDone = nil, nil
		r.free = append(r.free, j)
		if done != nil {
			done()
		}
		r.dispatch()
	}
	return j
}

func (r *Resource) dispatch() {
	for r.busy < r.capacity && r.head < len(r.queue) {
		j := r.queue[r.head]
		r.queue[r.head] = nil
		r.head++
		if r.head == len(r.queue) {
			r.queue = r.queue[:0]
			r.head = 0
		}
		r.accountBusy()
		r.busy++
		if j.onStart != nil {
			j.onStart()
		}
		r.engine.Schedule(j.service, j.complete)
	}
}

func (r *Resource) accountBusy() {
	now := r.engine.Now()
	r.busyTime += Time(float64(now-r.lastChange) * float64(r.busy) / float64(r.capacity))
	r.lastChange = now
}

// InUse reports the number of currently occupied servers.
func (r *Resource) InUse() int { return r.busy }

// QueueLen reports the number of jobs waiting for a server.
func (r *Resource) QueueLen() int { return len(r.queue) - r.head }

// Served reports the number of completed jobs.
func (r *Resource) Served() int64 { return r.served }

// Utilization reports the time-averaged fraction of capacity in use
// since the resource was created.
func (r *Resource) Utilization() float64 {
	r.accountBusy()
	if r.engine.Now() == 0 {
		return 0
	}
	return float64(r.busyTime) / float64(r.engine.Now())
}
