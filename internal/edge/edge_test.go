package edge

import (
	"reflect"
	"testing"

	"qvr/internal/fleet"
	"qvr/internal/pipeline"
)

// testTopo is a three-region grid: a big close site, a big far site,
// and a small distant one. RTTs are region-dependent, so nearest-RTT
// genuinely differs per user.
func testTopo() Topology {
	return Topology{Clusters: []ClusterSpec{
		{Name: "us-west", GPUs: 3, RTTSeconds: 0.040,
			RegionRTT: map[string]float64{"us": 0.008, "eu": 0.070, "ap": 0.090}},
		{Name: "eu-central", GPUs: 3, RTTSeconds: 0.040,
			RegionRTT: map[string]float64{"us": 0.070, "eu": 0.010, "ap": 0.110}},
		{Name: "ap-south", GPUs: 2, RTTSeconds: 0.060,
			RegionRTT: map[string]float64{"us": 0.090, "eu": 0.110, "ap": 0.012}},
	}}
}

// testSpecs mints n named sessions cycling through the regions.
func testSpecs(t *testing.T, n int) []fleet.SessionSpec {
	t.Helper()
	mix, ok := fleet.MixByName("mixed")
	if !ok {
		t.Fatal("mixed mix missing")
	}
	specs, err := mix.Specs(n, pipeline.QVR, 10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func newGrid(t *testing.T, p Policy) *Grid {
	t.Helper()
	g, err := NewGrid(testTopo(), p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
	}{
		{"empty", Topology{}},
		{"unnamed", Topology{Clusters: []ClusterSpec{{GPUs: 1}}}},
		{"duplicate", Topology{Clusters: []ClusterSpec{
			{Name: "a", GPUs: 1}, {Name: "a", GPUs: 2}}}},
		{"comma-name", Topology{Clusters: []ClusterSpec{{Name: "a,b", GPUs: 1}}}},
		{"negative-gpus", Topology{Clusters: []ClusterSpec{{Name: "a", GPUs: -1}}}},
		{"negative-rtt", Topology{Clusters: []ClusterSpec{{Name: "a", GPUs: 1, RTTSeconds: -0.01}}}},
		{"bad-region-rtt", Topology{Clusters: []ClusterSpec{
			{Name: "a", GPUs: 1, RegionRTT: map[string]float64{"us": -1}}}}},
	}
	for _, c := range cases {
		if err := c.topo.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	if err := testTopo().Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, p := range Policies {
		got, ok := PolicyByName(p.String())
		if !ok || got != p {
			t.Errorf("PolicyByName(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := PolicyByName("round-robin"); ok {
		t.Error("unknown policy accepted")
	}
}

// TestNearestRTTPlacesByRegion: under light load every session lands
// on its region's closest site.
func TestNearestRTTPlacesByRegion(t *testing.T) {
	g := newGrid(t, NearestRTT)
	specs := testSpecs(t, 6)
	placed, report := g.Place(specs)
	if report.FailedOver != 0 || report.Migrated != 0 {
		t.Fatalf("fresh light placement should be clean: %+v", report)
	}
	nearest := map[string]string{"us": "us-west", "eu": "eu-central", "ap": "ap-south"}
	for i, sp := range placed {
		if want := nearest[specs[i].Region]; sp.Config.RemoteClusterName != want {
			t.Errorf("session %q (region %s) on %q, want %q",
				sp.ID, specs[i].Region, sp.Config.RemoteClusterName, want)
		}
		if sp.Config.RemotePath.RTTSeconds <= 0 {
			t.Errorf("session %q has no WAN path", sp.ID)
		}
	}
}

// TestSaturationSpillsToNextBest: a site saturated past its queue
// ceiling sheds new arrivals to other sites instead of growing an
// unbounded queue.
func TestSaturationSpillsToNextBest(t *testing.T) {
	topo := Topology{Clusters: []ClusterSpec{
		{Name: "tiny", GPUs: 1, SessionsPerGPU: 1, RTTSeconds: 0.005},
		{Name: "big", GPUs: 8, RTTSeconds: 0.050},
	}}
	g, err := NewGrid(topo, NearestRTT)
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs(t, 8)
	placed, report := g.Place(specs)
	// tiny admits capacity*2 = 2 sessions, the rest spill to big.
	counts := map[string]int{}
	for _, sp := range placed {
		counts[sp.Config.RemoteClusterName]++
	}
	if counts["tiny"] != 2 || counts["big"] != 6 {
		t.Fatalf("spill placement = %v, want tiny:2 big:6", counts)
	}
	if report.FailedOver != 0 {
		t.Fatalf("spill must not fail anyone over: %+v", report)
	}
	// The saturated site charges a queue delay; the spilled ones none.
	for _, sp := range placed {
		q := sp.Config.RemoteQueueSeconds
		if sp.Config.RemoteClusterName == "tiny" && q <= 0 {
			t.Errorf("session %q on saturated tiny should pay a queue delay", sp.ID)
		}
		if sp.Config.RemoteClusterName == "big" && q != 0 {
			t.Errorf("session %q on big pays unexpected queue %v", sp.ID, q)
		}
	}
}

// TestLeastLoadedSpreads: the least-loaded policy balances a load that
// nearest-RTT would pile onto one site.
func TestLeastLoadedSpreads(t *testing.T) {
	g := newGrid(t, LeastLoaded)
	specs := testSpecs(t, 16)
	_, report := g.Place(specs)
	for _, c := range report.Clusters {
		if c.Assigned == 0 {
			t.Errorf("least-loaded left %q empty: %+v", c.Name, report.Clusters)
		}
	}
	// Loads should be near-even: max-min assigned within capacity ratio.
	lo, hi := 1e9, 0.0
	for _, c := range report.Clusters {
		if c.Load < lo {
			lo = c.Load
		}
		if c.Load > hi {
			hi = c.Load
		}
	}
	if hi-lo > 0.35 {
		t.Errorf("least-loaded imbalance %v..%v too wide: %+v", lo, hi, report.Clusters)
	}
}

// TestOutageMigratesSessions is the subsystem's core story: a site
// dies between phases, its sessions migrate to survivors (paying the
// handoff), nobody is dropped, and when the site returns the grid
// does not thrash sessions back.
func TestOutageMigratesSessions(t *testing.T) {
	g := newGrid(t, Score)
	specs := testSpecs(t, 12)

	_, r1 := g.Place(specs)
	if r1.Migrated != 0 {
		t.Fatalf("fresh placement reported migrations: %+v", r1)
	}
	victims := map[string]bool{}
	for i, sp := range mustPlace(t, g, specs) { // second round: sticky, no moves
		_ = i
		if sp.Config.RemoteClusterName == "eu-central" {
			victims[sp.ID.String()] = true
		}
	}
	if len(victims) == 0 {
		t.Fatal("test needs sessions on eu-central; placement left it empty")
	}

	// eu-central goes down.
	if err := g.BeginPhase(map[string]int{"eu-central": 0}, nil); err != nil {
		t.Fatal(err)
	}
	placed, report := g.Place(specs)
	if report.Migrated != len(victims) {
		t.Fatalf("migrated %d, want %d (the eu-central population)", report.Migrated, len(victims))
	}
	if report.FailedOver != 0 {
		t.Fatalf("outage with surviving capacity failed %d over", report.FailedOver)
	}
	for _, sp := range placed {
		if sp.Config.RemoteClusterName == "eu-central" {
			t.Fatalf("session %q still on the dead site", sp.ID)
		}
		if victims[sp.ID.String()] {
			if sp.Config.RemoteHandoffSeconds != g.HandoffSeconds {
				t.Errorf("migrated session %q missing handoff stall", sp.ID)
			}
			if sp.Config.Design == pipeline.LocalOnly {
				t.Errorf("migrated session %q degraded to local-only", sp.ID)
			}
		} else if sp.Config.RemoteHandoffSeconds != 0 {
			t.Errorf("unmigrated session %q charged a handoff", sp.ID)
		}
	}
	for _, mv := range report.Moves {
		if !victims[mv.Session] || mv.From != "eu-central" || mv.To == FailoverName {
			t.Errorf("unexpected move %+v", mv)
		}
	}

	// Site returns: drain-back sends (at least some of) the refugees
	// home — every move targets the recovered site — and the next
	// phase reaches a fixpoint instead of ping-ponging.
	if err := g.BeginPhase(nil, nil); err != nil {
		t.Fatal(err)
	}
	_, r3 := g.Place(specs)
	if r3.Migrated == 0 {
		t.Errorf("failback should drain sessions back to the recovered site")
	}
	for _, mv := range r3.Moves {
		if mv.To != "eu-central" {
			t.Errorf("failback move %+v should target the recovered site", mv)
		}
	}
	_, r4 := g.Place(specs)
	if r4.Migrated != 0 {
		t.Errorf("placement did not reach a fixpoint; still thrashing: %+v", r4.Moves)
	}
}

func mustPlace(t *testing.T, g *Grid, specs []fleet.SessionSpec) []fleet.SessionSpec {
	t.Helper()
	placed, report := g.Place(specs)
	if report.Migrated != 0 || report.FailedOver != 0 {
		t.Fatalf("expected a quiet placement round, got %+v", report)
	}
	return placed
}

// TestTotalOutageFailsOverLocal: every site down means local-only for
// everyone — never a drop.
func TestTotalOutageFailsOverLocal(t *testing.T) {
	g := newGrid(t, Score)
	specs := testSpecs(t, 6)
	g.Place(specs)
	if err := g.BeginPhase(map[string]int{"us-west": 0, "eu-central": 0, "ap-south": 0}, nil); err != nil {
		t.Fatal(err)
	}
	placed, report := g.Place(specs)
	if report.FailedOver != len(specs) {
		t.Fatalf("failed over %d, want all %d", report.FailedOver, len(specs))
	}
	for _, sp := range placed {
		if sp.Config.Design != pipeline.LocalOnly {
			t.Errorf("session %q not degraded to local-only", sp.ID)
		}
	}
	// Recovery: sites return, everyone re-places; returning from
	// failover is not counted as a migration (there was no site to
	// migrate from).
	if err := g.BeginPhase(nil, nil); err != nil {
		t.Fatal(err)
	}
	placed, report = g.Place(specs)
	if report.FailedOver != 0 || report.Migrated != 0 {
		t.Fatalf("failback should re-place quietly: %+v", report)
	}
	for _, sp := range placed {
		if sp.Config.RemoteClusterName == "" {
			t.Errorf("session %q still unplaced after failback", sp.ID)
		}
	}
}

// TestDerateShrinksCapacity: a phase derate reduces a site's capacity
// and sheds the overflow.
func TestDerateShrinksCapacity(t *testing.T) {
	g := newGrid(t, LeastLoaded)
	specs := testSpecs(t, 16)
	g.Place(specs)
	if err := g.BeginPhase(nil, map[string]float64{"us-west": 0.25}); err != nil {
		t.Fatal(err)
	}
	_, report := g.Place(specs)
	for _, c := range report.Clusters {
		if c.Name != "us-west" {
			continue
		}
		if want := 3; c.Capacity != want { // floor(3*4*0.25)
			t.Errorf("derated capacity = %d, want %d", c.Capacity, want)
		}
		if c.Assigned > 6 { // capacity * queue factor
			t.Errorf("derated site holds %d sessions past its ceiling", c.Assigned)
		}
	}
	if err := g.BeginPhase(nil, map[string]float64{"nope": 0.5}); err == nil {
		t.Error("derating an unknown cluster should error")
	}
	if err := g.BeginPhase(map[string]int{"nope": 1}, nil); err == nil {
		t.Error("resizing an unknown cluster should error")
	}
}

// TestPlacementDeterminism: two grids fed the same history produce
// identical placements and reports.
func TestPlacementDeterminism(t *testing.T) {
	run := func() ([]fleet.SessionSpec, fleet.GridReport) {
		g := newGrid(t, Score)
		specs := testSpecs(t, 14)
		g.Place(specs)
		if err := g.BeginPhase(map[string]int{"us-west": 0}, nil); err != nil {
			t.Fatal(err)
		}
		return g.Place(specs)
	}
	p1, r1 := run()
	p2, r2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("reports diverge:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("placements diverge")
	}
}

// TestDepartedSessionsReleaseSlots: a session missing from the spec
// list gives its slot back.
func TestDepartedSessionsReleaseSlots(t *testing.T) {
	topo := Topology{Clusters: []ClusterSpec{
		{Name: "only", GPUs: 1, SessionsPerGPU: 2, RTTSeconds: 0.01},
	}}
	g, err := NewGrid(topo, Score)
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs(t, 4) // maxAdmit = 4: exactly full
	_, r := g.Place(specs)
	if r.FailedOver != 0 {
		t.Fatalf("4 sessions should fit the 4-slot ceiling: %+v", r)
	}
	// Two depart, two fresh arrive: the newcomers must get the slots.
	next := append([]fleet.SessionSpec{}, specs[2:]...)
	next = append(next, testSpecs(t, 6)[4:]...)
	_, r = g.Place(next)
	if r.FailedOver != 0 {
		t.Fatalf("departures did not release slots: %+v", r)
	}
	if got := r.Clusters[0].Assigned; got != 4 {
		t.Fatalf("assigned = %d, want 4", got)
	}
}

// TestGridFleetIntegration: fleet.Run with a Placer reports grid
// contention and keeps worker-count invariance.
func TestGridFleetIntegration(t *testing.T) {
	specs := testSpecs(t, 10)
	digest := func(workers int) fleet.Summary {
		g := newGrid(t, Score)
		r := fleet.Run(fleet.Config{Specs: specs, Workers: workers, Placer: g})
		if r.Contention.Grid == nil {
			t.Fatal("grid report missing from contention")
		}
		s := r.Summarize()
		s.Workers, s.WallSeconds = 0, 0
		return s
	}
	a, b := digest(1), digest(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker count changed grid fleet results:\n%+v\n%+v", a, b)
	}
	if a.Dropped != 0 {
		t.Errorf("grid mode must never drop, got %d", a.Dropped)
	}
}

// TestSetBaseGPUsValidation: the autoscaler's knob rejects unknown
// sites and negative sizes, and a nil map restores the topology.
func TestSetBaseGPUsValidation(t *testing.T) {
	g := newGrid(t, Score)
	if err := g.SetBaseGPUs(map[string]int{"atlantis": 3}); err == nil {
		t.Error("unknown cluster accepted")
	}
	if err := g.SetBaseGPUs(map[string]int{"us-west": -1}); err == nil {
		t.Error("negative capacity accepted")
	}
	if err := g.SetBaseGPUs(map[string]int{"us-west": 5}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetBaseGPUs(nil); err != nil {
		t.Fatal(err)
	}
	_, report := g.Place(testSpecs(t, 3))
	for _, c := range report.Clusters {
		want := map[string]int{"us-west": 3, "eu-central": 3, "ap-south": 2}[c.Name]
		if c.GPUs != want {
			t.Errorf("after nil reset, %s has %d GPUs, want topology %d", c.Name, c.GPUs, want)
		}
	}
}

// TestShrinkEvictsAndGrowDrainsBack: a dynamic capacity shrink makes
// the site infeasible for its overflow — those sessions migrate, each
// paying exactly one handoff — and the later grow refills it through
// the drain-back hysteresis, reaching a fixpoint instead of
// ping-ponging.
func TestShrinkEvictsAndGrowDrainsBack(t *testing.T) {
	// The RTT gap dwarfs the score policy's load term, so light load
	// genuinely packs the near site.
	topo := Topology{Clusters: []ClusterSpec{
		{Name: "near", GPUs: 3, RTTSeconds: 0.010},
		{Name: "far", GPUs: 3, RTTSeconds: 0.250},
	}}
	g, err := NewGrid(topo, Score)
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs(t, 12) // all fit on near (capacity 12)
	placed := mustPlace(t, g, specs)
	for _, sp := range placed {
		if sp.Config.RemoteClusterName != "near" {
			t.Fatalf("light load should pack the near site, %q on %q", sp.ID, sp.Config.RemoteClusterName)
		}
	}

	// The autoscaler shrinks near to 1 GPU: capacity 4, queue ceiling
	// 8. Four sessions keep their sticky slots, four queue, the rest
	// must migrate to far — paying one handoff each.
	if err := g.SetBaseGPUs(map[string]int{"near": 1}); err != nil {
		t.Fatal(err)
	}
	moved, report := g.Place(specs)
	if report.Migrated != 4 {
		t.Fatalf("shrink migrated %d sessions, want 4 (12 sticky minus queue ceiling 8): %+v", report.Migrated, report.Moves)
	}
	if report.FailedOver != 0 {
		t.Fatalf("shrink with far capacity free failed %d over", report.FailedOver)
	}
	seen := map[string]int{}
	for _, mv := range report.Moves {
		seen[mv.Session]++
		if mv.From != "near" || mv.To != "far" {
			t.Errorf("unexpected move %+v", mv)
		}
	}
	handoffs := 0
	for _, sp := range moved {
		if sp.Config.RemoteHandoffSeconds > 0 {
			handoffs++
			if n := seen[sp.ID.String()]; n != 1 {
				t.Errorf("session %q charged a handoff for %d moves", sp.ID, n)
			}
		}
	}
	if handoffs != report.Migrated {
		t.Errorf("%d handoffs charged for %d migrations", handoffs, report.Migrated)
	}

	// The autoscaler grows near back: the refugees drain home under
	// the hysteresis (a ≥30%% better figure), then placement settles.
	if err := g.SetBaseGPUs(map[string]int{"near": 3}); err != nil {
		t.Fatal(err)
	}
	_, back := g.Place(specs)
	if back.Migrated == 0 {
		t.Error("grow should drain refugees back to the near site")
	}
	for _, mv := range back.Moves {
		if mv.To != "near" {
			t.Errorf("drain-back move %+v should target the regrown site", mv)
		}
	}
	_, settled := g.Place(specs)
	if settled.Migrated != 0 {
		t.Errorf("capacity transitions left placement thrashing: %+v", settled.Moves)
	}
}

// TestPhaseOverrideWinsOverBase: a scenario-staged outage kills a site
// no matter what base capacity the autoscaler ordered, and the base
// returns when the phase override lifts.
func TestPhaseOverrideWinsOverBase(t *testing.T) {
	g := newGrid(t, Score)
	if err := g.SetBaseGPUs(map[string]int{"eu-central": 6}); err != nil {
		t.Fatal(err)
	}
	if err := g.BeginPhase(map[string]int{"eu-central": 0}, nil); err != nil {
		t.Fatal(err)
	}
	_, report := g.Place(testSpecs(t, 6))
	for _, c := range report.Clusters {
		if c.Name == "eu-central" && (c.GPUs != 0 || c.Assigned != 0) {
			t.Errorf("phase outage overridden by base capacity: %+v", c)
		}
	}
	// A mid-phase base change must not revive the site the phase
	// declared down.
	if err := g.SetBaseGPUs(map[string]int{"eu-central": 9}); err != nil {
		t.Fatal(err)
	}
	_, report = g.Place(testSpecs(t, 6))
	for _, c := range report.Clusters {
		if c.Name == "eu-central" && c.GPUs != 0 {
			t.Errorf("mid-phase SetBaseGPUs revived the dead site: %+v", c)
		}
	}
	// Override lifts: the autoscaled base (9), not the topology (3).
	if err := g.BeginPhase(nil, nil); err != nil {
		t.Fatal(err)
	}
	_, report = g.Place(testSpecs(t, 6))
	for _, c := range report.Clusters {
		if c.Name == "eu-central" && c.GPUs != 9 {
			t.Errorf("autoscaled base lost after phase reset: %+v", c)
		}
	}
}
