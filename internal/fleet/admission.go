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
// the single-cluster admission layer. Place returns the specs with
// their remote bindings adjusted (cluster, WAN path, queue delay,
// local-only failover) plus the grid's load report. Implementations
// must be deterministic in the spec list: the fleet's worker-count
// invariance contract extends to placement. internal/edge provides
// the production implementation.
type Placer interface {
	Place(specs []SessionSpec) ([]SessionSpec, GridReport)
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

// admit applies the admission and cell-sharing layers to specs, the
// run's own materialized population, returning the admitted specs
// (with adjusted Configs), the dropped specs, and the contention
// report. Cell sharing adjusts specs in place, so the caller must not
// pass a slice it shares.
func admit(cfg Config, specs []SessionSpec) (admitted, dropped []SessionSpec, report Contention) {
	// Counters increment here, at the decision sites, not from the
	// report fields — obs.Refute cross-checks the two independently.
	var ctl *obs.Shard
	if cfg.Obs != nil {
		ctl = cfg.Obs.Ctl()
	}
	a := cfg.Admission
	switch {
	case cfg.Placer != nil:
		// Grid mode: the geo-distributed scheduler owns every remote
		// binding. It never drops — overflow degrades to local-only.
		adjusted, gr := cfg.Placer.Place(specs)
		specs = adjusted
		report.FailedOver = gr.FailedOver
		report.Grid = &gr
	case a.Enabled && a.Cluster.GPUs <= 0:
		// Total remote outage: the cluster has no capacity at all.
		// Dropping everyone would model a service refusing logins; what
		// production systems do instead is fail over, and the client
		// has a working (if slower) fallback renderer on board — so
		// every session degrades to local-only rendering.
		report.FailedOver = len(specs)
		adjusted := make([]SessionSpec, len(specs))
		for i, sp := range specs {
			if ctl != nil {
				ctl.Inc(obs.CAdmitFailedOver)
			}
			sp.Config.Design = pipeline.LocalOnly
			adjusted[i] = sp
		}
		specs = adjusted
	case a.Cluster.GPUs > 0:
		a = a.withDefaults()
		capacity := a.Cluster.GPUs * a.SessionsPerGPU
		maxAdmit := int(float64(capacity) * a.MaxQueueFactor)
		if len(specs) > maxAdmit {
			if ctl != nil {
				ctl.Add(obs.CAdmitDropped, int64(len(specs)-maxAdmit))
			}
			dropped = append(dropped, specs[maxAdmit:]...)
			specs = specs[:maxAdmit]
		}
		load := float64(len(specs)) / float64(capacity)
		report.Capacity = capacity
		report.Load = load

		shared := a.Cluster.Share(load)
		if queued := len(specs) - capacity; queued > 0 {
			// Each request waits behind its share of the overload: the
			// queue drains at cluster rate, so the expected wait is the
			// queued depth over capacity, in service times.
			report.QueueSeconds = a.ServiceSeconds * float64(queued) / float64(capacity)
		}
		adjusted := make([]SessionSpec, len(specs))
		for i, sp := range specs {
			if ctl != nil {
				ctl.ObserveSeconds(obs.HAdmitQueueUs, report.QueueSeconds)
			}
			sp.Config.Remote = shared
			sp.Config.RemoteQueueSeconds = report.QueueSeconds
			adjusted[i] = sp
		}
		specs = adjusted
	}

	if cfg.CellCapacity > 0 {
		specs, report.SharedCells = shareCells(specs, cfg.CellCapacity)
	}
	return specs, dropped, report
}

// shareCells splits each oversubscribed network condition's bandwidth
// evenly across the sessions camped on it.
func shareCells(specs []SessionSpec, capacity int) ([]SessionSpec, map[string]float64) {
	count := map[string]int{}
	for _, sp := range specs {
		count[sp.Config.Network.Name]++
	}
	var cells map[string]float64
	for i, sp := range specs {
		n := count[sp.Config.Network.Name]
		if n <= capacity {
			continue
		}
		factor := float64(capacity) / float64(n)
		if cells == nil {
			cells = map[string]float64{}
		}
		cells[sp.Config.Network.Name] = factor
		sp.Config.Network = sp.Config.Network.Scaled(factor)
		specs[i] = sp
	}
	return specs, cells
}
