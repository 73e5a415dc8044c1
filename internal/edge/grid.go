package edge

import (
	"fmt"
	"math"

	"qvr/internal/fleet"
	"qvr/internal/gpu"
	"qvr/internal/netsim"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
)

// DefaultHandoffSeconds is the one-time migration stall a session pays
// when the grid moves it to a different site mid-timeline: state
// transfer, stream re-establishment, a codec keyframe. 50 ms is a
// conservative figure for a warm handoff between provisioned sites.
const DefaultHandoffSeconds = 0.050

// FailoverName is the Move.To spelling for a session degraded to
// local-only rendering because no site could take it.
const FailoverName = "local-only"

// RebalanceFactor is the drain-back hysteresis: a placed session
// voluntarily migrates only when some other site's policy figure is
// better than this fraction of its current one. Without drain-back,
// the imbalance an outage leaves behind ossifies (the migrants stay
// camped on their refuge site forever); without hysteresis, sessions
// ping-pong between near-equal sites every phase and pay the handoff
// each time. 0.7 means "move only for a ≥30% improvement".
const RebalanceFactor = 0.7

// site is one cluster's phase-effective scheduling state.
type site struct {
	spec ClusterSpec
	// idx is the site's position in topology order.
	idx int
	// gpus/derate are the phase-effective size and throughput factor
	// (scenario outage and derate keys land here).
	gpus   int
	derate float64
	// capacity is full-speed sessions; maxAdmit the queue-bounded
	// admission ceiling beyond which sessions spill to other sites.
	capacity int
	maxAdmit int
	// assigned counts sessions bound to the site this round.
	assigned int
}

// up reports whether the site can serve anyone at all.
func (s *site) up() bool { return s.capacity > 0 }

// load is assigned sessions over full-speed capacity.
func (s *site) load() float64 {
	if s.capacity == 0 {
		return 0
	}
	return float64(s.assigned) / float64(s.capacity)
}

// queueSeconds prices the admission queue at the site for the given
// assignment count (the fleet admission layer's drain-rate formula).
func (s *site) queueSeconds(assigned int) float64 {
	if queued := assigned - s.capacity; queued > 0 && s.capacity > 0 {
		return fleet.DefaultServiceSeconds * float64(queued) / float64(s.capacity)
	}
	return 0
}

// Grid is the geo-distributed placement scheduler. It implements
// fleet.Placer: fleet.Run hands it the phase's population by index and
// gets back the per-session remote binding plus the placement report.
//
// A Grid carries placement state across calls — that is the point:
// scenario timelines call Bind once per phase, and the sticky
// assignment map is what makes a site outage produce *migrations*
// (sessions moving between sites) rather than a fresh global
// reshuffle. All state is touched only from Bind/Place/BeginPhase on
// the caller's goroutine; the Grid is not safe for concurrent use. The
// binding Bind returns is, because it reads only values fixed when
// Bind returned.
type Grid struct {
	topo   Topology
	policy Policy

	// HandoffSeconds is the one-time stall charged to each migrated
	// session (DefaultHandoffSeconds unless overridden).
	HandoffSeconds float64

	// sites is the phase-effective scheduling state, topology order.
	sites []*site
	// assigned is the sticky session -> site binding from the previous
	// placement round.
	assigned map[fleet.SessionID]string
	// baseGPUs, when non-empty, overrides the topology-declared GPU
	// counts for named sites — the autoscaler's knob. Phase overrides
	// (BeginPhase) still win within their phase.
	baseGPUs map[string]int
	// phaseGPUs/phaseDerate are the current phase's overrides, kept so
	// a mid-phase SetBaseGPUs cannot silently revive a site the phase
	// declared down.
	phaseGPUs   map[string]int
	phaseDerate map[string]float64
	// obs, when set, counts placement decisions (sticky/policy/
	// migration/drain-back/failover) and observes per-site load and
	// queue delay. Place runs on one goroutine, so the control shard is
	// the right home.
	obs *obs.Shard
}

// NewGrid builds a scheduler over the topology. The topology is
// validated here so every later phase can trust it.
func NewGrid(t Topology, p Policy) (*Grid, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	g := &Grid{
		topo:           t,
		policy:         p,
		HandoffSeconds: DefaultHandoffSeconds,
		assigned:       map[fleet.SessionID]string{},
	}
	g.resetSites()
	return g, nil
}

// Policy returns the grid's placement policy.
func (g *Grid) Policy() Policy { return g.policy }

// SetObs points the grid's decision counters at a registry (nil
// detaches them).
func (g *Grid) SetObs(reg *obs.Registry) {
	if reg == nil {
		g.obs = nil
		return
	}
	g.obs = reg.Ctl()
}

// Topology returns the grid's declared layout.
func (g *Grid) Topology() Topology { return g.topo }

// resetSites rebuilds the phase-effective site state: topology
// defaults, resized by any dynamic base capacity, with the current
// phase's overrides on top.
func (g *Grid) resetSites() {
	g.sites = make([]*site, len(g.topo.Clusters))
	for i, c := range g.topo.Clusters {
		gpus := c.GPUs
		if n, ok := g.baseGPUs[c.Name]; ok {
			gpus = n
		}
		g.sites[i] = &site{spec: c, idx: i, gpus: gpus, derate: 1}
		g.sizeSite(g.sites[i])
	}
	g.applyPhase()
}

// SetBaseGPUs installs dynamic per-site base GPU counts — the
// autoscaler acting back on the grid. The counts replace the
// topology-declared sizes for every subsequent placement round until
// changed again; sites absent from the map keep their declared size,
// and a nil map restores the topology throughout. Phase overrides
// (BeginPhase) still take precedence within their phase, so a
// scenario-staged outage kills a site no matter how many GPUs the
// controller ordered.
//
// Capacity transitions compose with the migration machinery the way
// an operator would want: a shrink makes the site infeasible for its
// tail of sticky sessions, which re-place (and pay the handoff)
// elsewhere; a grow makes the site attractive again, and the
// drain-back hysteresis paces the return instead of thrashing.
func (g *Grid) SetBaseGPUs(gpus map[string]int) error {
	for name, n := range gpus {
		if _, ok := g.topo.ClusterByName(name); !ok {
			return fmt.Errorf("edge: base capacity resizes unknown cluster %q", name)
		}
		if n < 0 {
			return fmt.Errorf("edge: base capacity for %q must not be negative, got %d", name, n)
		}
	}
	if gpus == nil {
		g.baseGPUs = nil
	} else {
		g.baseGPUs = make(map[string]int, len(gpus))
		for name, n := range gpus {
			g.baseGPUs[name] = n
		}
	}
	g.resetSites()
	return nil
}

// sizeSite derives capacity and the admission ceiling from the
// phase-effective gpus/derate.
func (s *site) sessionsPerGPU() int {
	if s.spec.SessionsPerGPU > 0 {
		return s.spec.SessionsPerGPU
	}
	return fleet.DefaultSessionsPerGPU
}

func (g *Grid) sizeSite(s *site) {
	s.capacity = int(math.Floor(float64(s.gpus*s.sessionsPerGPU()) * s.derate))
	s.maxAdmit = int(float64(s.capacity) * fleet.DefaultMaxQueueFactor)
	s.assigned = 0
}

// BeginPhase applies a scenario phase's site overrides: gpus resizes
// (or kills, at 0) named sites, derate scales their capacity and
// per-GPU throughput. Overrides are absolute against the topology
// defaults — a phase without an entry restores the declared size, so
// an outage ends when its phase does. Unknown site names error, and
// nothing changes on error.
func (g *Grid) BeginPhase(gpus map[string]int, derate map[string]float64) error {
	for name := range gpus {
		if _, ok := g.topo.ClusterByName(name); !ok {
			return fmt.Errorf("edge: phase resizes unknown cluster %q", name)
		}
	}
	for name := range derate {
		if _, ok := g.topo.ClusterByName(name); !ok {
			return fmt.Errorf("edge: phase derates unknown cluster %q", name)
		}
	}
	// Copies: the caller keeps its maps, the grid keeps the phase.
	g.phaseGPUs = make(map[string]int, len(gpus))
	for name, n := range gpus {
		g.phaseGPUs[name] = n
	}
	g.phaseDerate = make(map[string]float64, len(derate))
	for name, f := range derate {
		g.phaseDerate[name] = f
	}
	g.resetSites()
	return nil
}

// applyPhase lays the current phase's overrides over the base-sized
// sites.
func (g *Grid) applyPhase() {
	for name, n := range g.phaseGPUs {
		s := g.siteByName(name)
		if n < 0 {
			n = 0
		}
		s.gpus = n
		g.sizeSite(s)
	}
	for name, f := range g.phaseDerate {
		s := g.siteByName(name)
		// Fail closed on NaN.
		if !(f >= 0) {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		s.derate = f
		g.sizeSite(s)
	}
}

// seat is one session's state through a placement round: the ID and
// region the place pass minted, the site it is bound to (nil =
// local-only failover), and whether it kept its previous site (sticky)
// or moved this round.
type seat struct {
	id            fleet.SessionID
	region        string
	site          *site
	sticky, moved bool
}

// siteBinding is what every session placed on one site shares in a
// round, computed once per site after the placement passes.
type siteBinding struct {
	spec   ClusterSpec
	remote gpu.RemoteCluster
	queue  float64
	// wan names the site's WAN path.
	wan string
}

// Place binds every session in specs to a site (or to local-only
// rendering as the last resort) and returns the adjusted specs with
// the placement report: Bind over the slice, with each spec bound.
func (g *Grid) Place(specs []fleet.SessionSpec) ([]fleet.SessionSpec, fleet.GridReport) {
	bind, report := g.Bind(len(specs), func(i int) fleet.SessionSpec { return specs[i] })
	adjusted := make([]fleet.SessionSpec, len(specs))
	for i, sp := range specs {
		adjusted[i] = bind(i, sp)
	}
	return adjusted, report
}

// Bind places the n sessions at mints and returns the placement
// report plus the binding that applies session i's placement to its
// spec. It implements fleet.Placer.
//
// Placement mints each index once, for its ID and region, and runs
// in deterministic passes in index order: sticky first — a session
// already bound to a live, unsaturated site stays there, because
// moving users is what the migration penalty exists to discourage —
// then policy placement for everyone else (new arrivals, and sessions
// evicted by an outage, derate or saturation), then drain-back. A
// session placed onto a different site than its previous one is a
// migration: it is recorded in the report and pays the handoff stall.
func (g *Grid) Bind(n int, at func(i int) fleet.SessionSpec) (func(i int, sp fleet.SessionSpec) fleet.SessionSpec, fleet.GridReport) {
	report := fleet.GridReport{
		Policy:   g.policy.String(),
		Clusters: make([]fleet.ClusterLoad, 0, len(g.sites)),
	}

	// Each round re-counts occupancy from scratch: only sessions in
	// this population occupy slots.
	for _, s := range g.sites {
		s.assigned = 0
	}

	seats := make([]seat, n)
	for i := range seats {
		sp := at(i)
		seats[i].id, seats[i].region = sp.ID, sp.Region
	}
	if len(g.assigned) == 0 {
		// A fresh grid has nothing to prune; size the sticky map for
		// the population it is about to hold.
		g.assigned = make(map[fleet.SessionID]string, n)
	} else {
		// The sticky map is pruned to the live population: a departed
		// session's slot must not haunt the capacity accounting.
		present := make(map[fleet.SessionID]bool, n)
		for i := range seats {
			present[seats[i].id] = true
		}
		for id := range g.assigned {
			if !present[id] {
				delete(g.assigned, id)
			}
		}
	}

	// Pass 1 — sticky: keep sessions where they are while the site
	// stays feasible.
	for i := range seats {
		st := &seats[i]
		prev, ok := g.assigned[st.id]
		if !ok {
			continue
		}
		if s := g.siteByName(prev); s != nil && s.up() && s.assigned < s.maxAdmit {
			s.assigned++
			st.site = s
			st.sticky = true
			if g.obs != nil {
				g.obs.Inc(obs.CPlaceSticky)
			}
		}
	}

	// Pass 2 — policy placement for the unbound, in index order (the
	// arrival order: earlier sessions get first pick, so results are
	// independent of goroutine schedule and worker count).
	for i := range seats {
		st := &seats[i]
		if st.site != nil {
			continue
		}
		best := g.pickSite(st.region)
		prev := g.assigned[st.id]
		if best == nil {
			// Every site is down or saturated past its queue limit:
			// degrade to local-only rendering rather than drop.
			report.FailedOver++
			if g.obs != nil {
				g.obs.Inc(obs.CPlaceFailedOver)
			}
			if prev != "" {
				report.Moves = append(report.Moves, fleet.Move{Session: st.id.String(), From: prev, To: FailoverName})
				delete(g.assigned, st.id)
			}
			continue
		}
		best.assigned++
		st.site = best
		if g.obs != nil {
			g.obs.Inc(obs.CPlacePolicy)
		}
		if prev != "" && prev != best.spec.Name {
			report.Migrated++
			st.moved = true
			report.Moves = append(report.Moves, fleet.Move{Session: st.id.String(), From: prev, To: best.spec.Name})
			if g.obs != nil {
				g.obs.Inc(obs.CPlaceMigrated)
			}
		}
		g.assigned[st.id] = best.spec.Name
	}

	// Pass 3 — drain-back: a sticky session migrates anyway when some
	// other site beats its current one by the hysteresis margin. This
	// is what lets a recovered site refill after an outage (its old
	// population returns, paying the handoff once more) while
	// near-equal sites never thrash. Only sticky sessions are
	// eligible: a session placed fresh this round has no state to
	// hand off and its spot is already the policy's choice. One sweep
	// per phase: partial drain-back this phase finishes in the next,
	// which is how real schedulers pace rebalancing too.
	for i := range seats {
		st := &seats[i]
		s := st.site
		if s == nil || !st.sticky {
			continue
		}
		cur := candidate{
			rttSeconds:   s.spec.RTTFor(st.region),
			load:         s.load(),
			queueSeconds: s.queueSeconds(s.assigned),
		}
		var alt *site
		var altCand candidate
		for _, o := range g.sites {
			if o == s || !o.up() || o.assigned >= o.maxAdmit {
				continue
			}
			cand := candidate{
				rttSeconds:   o.spec.RTTFor(st.region),
				load:         float64(o.assigned+1) / float64(o.capacity),
				queueSeconds: o.queueSeconds(o.assigned + 1),
			}
			if alt == nil || g.policy.better(cand, altCand) {
				alt, altCand = o, cand
			}
		}
		if alt == nil || g.policy.figure(altCand) >= RebalanceFactor*g.policy.figure(cur) {
			continue
		}
		s.assigned--
		alt.assigned++
		st.site = alt
		st.moved = true
		report.Migrated++
		if g.obs != nil {
			g.obs.Inc(obs.CPlaceMigrated)
			g.obs.Inc(obs.CPlaceDrainback)
		}
		report.Moves = append(report.Moves, fleet.Move{Session: st.id.String(), From: s.spec.Name, To: alt.spec.Name})
		g.assigned[st.id] = alt.spec.Name
	}

	// Each site is shared like the fleet's single cluster: beyond
	// capacity the per-GPU throughput splits and a queue delay is
	// charged. Those values are the site's, not the session's.
	sites := make([]siteBinding, len(g.sites))
	for k, s := range g.sites {
		if s.assigned == 0 {
			continue
		}
		sites[k] = siteBinding{
			spec:   s.spec,
			remote: gpu.DefaultRemote().WithGPUs(s.gpus).Derate(s.derate).Share(s.load()),
			queue:  s.queueSeconds(s.assigned),
			wan:    "wan:" + s.spec.Name,
		}
	}
	if g.obs != nil {
		for i := range seats {
			if s := seats[i].site; s != nil {
				g.obs.ObserveSeconds(obs.HAdmitQueueUs, sites[s.idx].queue)
			}
		}
	}
	for _, s := range g.sites {
		if g.obs != nil && s.up() {
			g.obs.Observe(obs.HGridLoadPct, int64(math.Round(s.load()*100)))
		}
		report.Clusters = append(report.Clusters, fleet.ClusterLoad{
			Name:     s.spec.Name,
			GPUs:     s.gpus,
			Capacity: s.capacity,
			Assigned: s.assigned,
			Load:     s.load(),
			QueueMs:  s.queueSeconds(s.assigned) * 1000,
		})
	}

	handoff := g.HandoffSeconds
	bind := func(i int, sp fleet.SessionSpec) fleet.SessionSpec {
		st := &seats[i]
		if st.site == nil {
			sp.Config.Design = pipeline.LocalOnly
			sp.Config.RemoteClusterName = ""
			return sp
		}
		b := &sites[st.site.idx]
		sp.Config.Remote = b.remote
		sp.Config.RemoteQueueSeconds = b.queue
		sp.Config.RemoteClusterName = b.spec.Name
		sp.Config.RemotePath = netsim.WANPath(b.wan, b.spec.RTTFor(sp.Region), b.spec.BandwidthBps)
		if st.moved {
			sp.Config.RemoteHandoffSeconds = handoff
		}
		return sp
	}
	return bind, report
}

// pickSite returns the policy's best feasible site for a session in
// the given region, or nil when none can take another session.
func (g *Grid) pickSite(region string) *site {
	var best *site
	var bestCand candidate
	for _, s := range g.sites {
		if !s.up() || s.assigned >= s.maxAdmit {
			continue
		}
		cand := candidate{
			rttSeconds:   s.spec.RTTFor(region),
			load:         float64(s.assigned+1) / float64(s.capacity),
			queueSeconds: s.queueSeconds(s.assigned + 1),
		}
		if best == nil || g.policy.better(cand, bestCand) {
			best, bestCand = s, cand
		}
	}
	return best
}

func (g *Grid) siteByName(name string) *site {
	for _, s := range g.sites {
		if s.spec.Name == name {
			return s
		}
	}
	return nil
}
