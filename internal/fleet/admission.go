package fleet

import (
	"qvr/internal/gpu"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
)

// Admission models the shared remote render cluster's front door.
//
// Capacity is SessionsPerGPU sessions per chiplet GPU at full
// per-session speed. Load past capacity is still served — the
// scheduler time-slices the GPUs, splitting per-session throughput
// and queueing each request behind the overload — up to
// MaxQueueFactor times capacity; arrivals past that are refused
// outright (dropped), because an infinitely deep queue would only
// convert every admitted session into a judder machine.
type Admission struct {
	// Cluster is the shared remote rendering cluster. GPUs == 0
	// disables admission entirely unless Enabled is set.
	Cluster gpu.RemoteCluster
	// Enabled forces the admission layer on even when Cluster.GPUs is
	// zero. A zero-GPU enabled cluster models a total remote outage:
	// there is no capacity to share or queue for, so every session
	// fails over to local-only rendering for the duration (scenario
	// timelines flip GPU counts between phases to stage exactly this).
	Enabled bool
	// SessionsPerGPU is how many concurrent sessions one remote GPU
	// sustains at full PerGPUSpeedup (the paper's periphery render is
	// a fraction of a GPU frame). Default 4.
	SessionsPerGPU int
	// MaxQueueFactor caps admitted load at capacity*factor; the rest
	// is dropped. Default 2.
	MaxQueueFactor float64
	// ServiceSeconds is the nominal per-request remote service time
	// used to price the queueing delay. Default 2ms, a typical
	// periphery render+encode on the shared cluster.
	ServiceSeconds float64
}

// Defaults for Admission's zero-valued tunables.
const (
	DefaultSessionsPerGPU = 4
	DefaultMaxQueueFactor = 2.0
	DefaultServiceSeconds = 0.002
)

// Placer binds each session to one of several remote render sites: a
// geo-distributed scheduler's front door, consulted by Run in place of
// the single-cluster admission layer. Bind decides placement for the
// population of n sessions whose index i is minted by at(i), and
// returns the grid's load report plus a binding: bind(i, sp) returns
// sp, the spec at(i) mints, with session i's remote binding applied
// (cluster, WAN path, queue delay, handoff, local-only failover). Run
// calls the binding from its workers, concurrently across indices, on
// the spec each worker mints on its own stack; the spec goes in and
// comes out by value, so it never leaves that stack. Bind calls at(i)
// exactly once per index i in [0, n), from its own goroutine, before
// it returns: Run counts cell occupancy from those mints instead of
// minting the population again (an index Bind skips is minted once
// more, a repeat is not counted twice). Implementations must be
// deterministic in the population: the fleet's worker-count
// invariance contract extends to placement. internal/edge provides
// the production implementation.
type Placer interface {
	Bind(n int, at func(i int) SessionSpec) (bind func(i int, sp SessionSpec) SessionSpec, report GridReport)
}

// ClusterLoad is one edge cluster's slice of a grid placement report.
type ClusterLoad struct {
	// Name is the cluster's topology name.
	Name string `json:"name"`
	// GPUs is the phase-effective chiplet count (0 = the site is down).
	GPUs int `json:"gpus"`
	// Capacity is the full-speed session capacity after any derate.
	Capacity int `json:"capacity"`
	// Assigned is how many sessions the scheduler bound to this site.
	Assigned int `json:"assigned"`
	// Load is Assigned over Capacity (0 when the site is down).
	Load float64 `json:"load"`
	// QueueMs is the per-request queueing delay the site charges.
	QueueMs float64 `json:"queue_ms"`
}

// Move records one session migration: a placement decision that moved
// an existing session between sites (or onto local-only rendering).
type Move struct {
	Session string `json:"session"`
	From    string `json:"from"`
	// To is the receiving cluster, or "local-only" on failover.
	To string `json:"to"`
}

// GridReport is a Placer's account of one placement round.
type GridReport struct {
	// Policy names the placement policy that made the decisions.
	Policy string `json:"policy"`
	// Clusters lists per-site utilization in topology order.
	Clusters []ClusterLoad `json:"clusters"`
	// Migrated counts sessions moved between sites this round; Moves
	// lists them (including moves onto local-only rendering).
	Migrated int    `json:"migrated"`
	Moves    []Move `json:"moves,omitempty"`
	// FailedOver counts sessions no site could serve, degraded to
	// local-only rendering instead of being dropped.
	FailedOver int `json:"failed_over"`
}

// Contention reports what the admission layer decided for one run.
type Contention struct {
	// Capacity is the full-speed session capacity of the cluster
	// (0 when admission is disabled).
	Capacity int
	// Load is admitted sessions over capacity (1.0 = exactly full).
	Load float64
	// QueueSeconds is the per-request queueing delay charged to every
	// admitted session.
	QueueSeconds float64
	// SharedCells maps condition names to the bandwidth split factor
	// applied when a cell is oversubscribed (absent = uncontended).
	SharedCells map[string]float64
	// FailedOver counts sessions forced onto local-only rendering
	// because the enabled cluster had zero capacity (a remote outage)
	// or, in grid mode, because no edge site could take them.
	FailedOver int
	// Grid carries the edge grid's placement report when Config.Placer
	// was set (nil in single-cluster and admission-free runs).
	Grid *GridReport
}

// withDefaults fills the zero tunables.
func (a Admission) withDefaults() Admission {
	if a.SessionsPerGPU <= 0 {
		a.SessionsPerGPU = DefaultSessionsPerGPU
	}
	if a.MaxQueueFactor <= 0 {
		a.MaxQueueFactor = DefaultMaxQueueFactor
	}
	if a.ServiceSeconds <= 0 {
		a.ServiceSeconds = DefaultServiceSeconds
	}
	return a
}

// admit applies the admission and cell-sharing layers to the
// population src mints. It decides per index: the admitted sessions
// are indices [0, n), the dropped tail is minted into dropped, and
// bind applies session i's adjustments (cluster binding, queue delay,
// failover, scaled bandwidth) to the spec src.At(i) mints. A nil bind
// leaves every spec as minted.
func admit(cfg Config, src *SpecSource) (n int, bind func(i int, sp SessionSpec) SessionSpec, dropped []SessionSpec, report Contention) {
	// Counters increment here, at the decision sites, not from the
	// report fields — obs.Refute cross-checks the two independently.
	var ctl *obs.Shard
	if cfg.Obs != nil {
		ctl = cfg.Obs.Ctl()
	}
	n = src.N
	a := cfg.Admission
	// Cell occupancy counted from the place pass's mints: counted[name]
	// sessions, the indices set in placed.
	var counted map[string]int
	var placed []uint64
	switch {
	case cfg.Placer != nil:
		// Grid mode: the geo-distributed scheduler owns every remote
		// binding. It never drops — overflow degrades to local-only.
		at := src.At
		if cfg.CellCapacity > 0 {
			counted, placed = map[string]int{}, make([]uint64, (n+63)/64)
			at = func(i int) SessionSpec {
				sp := src.At(i)
				if i >= 0 && i < n && placed[i/64]&(1<<(i%64)) == 0 {
					placed[i/64] |= 1 << (i % 64)
					counted[sp.Config.Network.Name]++
				}
				return sp
			}
		}
		var gr GridReport
		bind, gr = cfg.Placer.Bind(n, at)
		report.FailedOver = gr.FailedOver
		report.Grid = &gr
	case a.Enabled && a.Cluster.GPUs <= 0:
		// Total remote outage: the cluster has no capacity at all.
		// Dropping everyone would model a service refusing logins; what
		// production systems do instead is fail over, and the client
		// has a working (if slower) fallback renderer on board — so
		// every session degrades to local-only rendering.
		report.FailedOver = n
		if ctl != nil {
			ctl.Add(obs.CAdmitFailedOver, int64(n))
		}
		bind = func(_ int, sp SessionSpec) SessionSpec {
			sp.Config.Design = pipeline.LocalOnly
			return sp
		}
	case a.Cluster.GPUs > 0:
		a = a.withDefaults()
		capacity := a.Cluster.GPUs * a.SessionsPerGPU
		maxAdmit := int(float64(capacity) * a.MaxQueueFactor)
		if n > maxAdmit {
			if ctl != nil {
				ctl.Add(obs.CAdmitDropped, int64(n-maxAdmit))
			}
			dropped = make([]SessionSpec, 0, n-maxAdmit)
			for i := maxAdmit; i < n; i++ {
				dropped = append(dropped, src.At(i))
			}
			n = maxAdmit
		}
		load := float64(n) / float64(capacity)
		report.Capacity = capacity
		report.Load = load

		shared := a.Cluster.Share(load)
		if queued := n - capacity; queued > 0 {
			// Each request waits behind its share of the overload: the
			// queue drains at cluster rate, so the expected wait is the
			// queued depth over capacity, in service times.
			report.QueueSeconds = a.ServiceSeconds * float64(queued) / float64(capacity)
		}
		queue := report.QueueSeconds
		if ctl != nil {
			for range n {
				ctl.ObserveSeconds(obs.HAdmitQueueUs, queue)
			}
		}
		bind = func(_ int, sp SessionSpec) SessionSpec {
			sp.Config.Remote = shared
			sp.Config.RemoteQueueSeconds = queue
			return sp
		}
	}

	if cfg.CellCapacity > 0 {
		report.SharedCells = shareCells(src, n, cfg.CellCapacity, counted, placed)
		if cells, inner := report.SharedCells, bind; cells != nil {
			bind = func(i int, sp SessionSpec) SessionSpec {
				if inner != nil {
					sp = inner(i, sp)
				}
				if f, ok := cells[sp.Config.Network.Name]; ok {
					sp.Config.Network = sp.Config.Network.Scaled(f)
				}
				return sp
			}
		}
	}
	return n, bind, dropped, report
}

// shareCells counts the sessions camped on each network condition
// among the admitted indices [0, n) and returns the bandwidth split
// factor of each oversubscribed one: its bandwidth splits evenly
// across the sessions on it. Nil means no cell is oversubscribed.
// count, if not nil, already holds the indices set in placed, counted
// as the place pass minted them; shareCells mints only the rest.
func shareCells(src *SpecSource, n, capacity int, count map[string]int, placed []uint64) map[string]float64 {
	if count == nil {
		count = map[string]int{}
	}
	for i := range n {
		if placed != nil && placed[i/64]&(1<<(i%64)) != 0 {
			continue
		}
		count[src.At(i).Config.Network.Name]++
	}
	var cells map[string]float64
	for name, c := range count {
		if c <= capacity {
			continue
		}
		if cells == nil {
			cells = map[string]float64{}
		}
		cells[name] = float64(capacity) / float64(c)
	}
	return cells
}
