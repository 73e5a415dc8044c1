package fleet_test

import (
	"testing"

	"qvr/internal/edge"
	"qvr/internal/fleet"
	"qvr/internal/obs"
)

// TestSourceMatchesSpecsOnGrid holds the Specs/Source/lean equivalence
// on an edge grid whose run migrates sessions. Each fresh grid places
// the population once, then loses its nearest site for "us" users, so
// the run under test re-places those sessions and charges each one a
// handoff.
func TestSourceMatchesSpecsOnGrid(t *testing.T) {
	specs := fleet.SpecsForTest(t, 36)
	topo := edge.Topology{Clusters: []edge.ClusterSpec{
		{Name: "west", GPUs: 3, RTTSeconds: 0.040, RegionRTT: map[string]float64{"us": 0.008}},
		{Name: "central", GPUs: 3, RTTSeconds: 0.020, RegionRTT: map[string]float64{"eu": 0.010}},
		{Name: "south", GPUs: 2, RTTSeconds: 0.060, RegionRTT: map[string]float64{"ap": 0.012}},
	}}
	grid := func() fleet.Config {
		g, err := edge.NewGrid(topo, edge.Score)
		if err != nil {
			t.Fatal(err)
		}
		g.Place(specs)
		if err := g.BeginPhase(map[string]int{"west": 0}, nil); err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		g.SetObs(reg)
		return fleet.Config{Workers: 3, Placer: g, Obs: reg}
	}

	c := grid()
	c.Specs = specs
	r := fleet.Run(c)
	if g := r.Contention.Grid; g == nil || g.Migrated == 0 {
		t.Fatalf("grid run migrated no sessions: %+v", r.Contention.Grid)
	}
	handoffs := 0
	for _, sr := range r.Sessions {
		if sr.Config.RemoteHandoffSeconds > 0 {
			handoffs++
		}
	}
	if handoffs == 0 {
		t.Fatal("no retained session carries a handoff")
	}
	fleet.CheckSourceMatchesSpecs(t, specs, grid)
}
