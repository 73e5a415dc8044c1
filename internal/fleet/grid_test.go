package fleet_test

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"qvr/internal/edge"
	"qvr/internal/fleet"
	"qvr/internal/gpu"
	"qvr/internal/obs"
)

// TestSourceMatchesSpecsOnGrid holds the Specs/Source/sink equivalence
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

// TestContendedSourceMintsByIndex: placement, cluster admission and
// cell sharing decide over a Source population by index, so a
// contended run mints each session at most twice — once to decide,
// once in the worker that runs it — instead of holding the population
// as a slice. A grid with cell sharing counts the cells from its place
// pass's mints, so it too stays within twice. Each run must still give the Specs run's summary,
// contention report and dropped sessions.
func TestContendedSourceMintsByIndex(t *testing.T) {
	specs := fleet.SpecsForTest(t, 30)
	topo := edge.Topology{Clusters: []edge.ClusterSpec{
		{Name: "west", GPUs: 1, RTTSeconds: 0.040, RegionRTT: map[string]float64{"us": 0.008}},
		{Name: "central", GPUs: 2, RTTSeconds: 0.020, RegionRTT: map[string]float64{"eu": 0.010}},
	}}
	cluster := gpu.DefaultRemote()
	cluster.GPUs = 2 // 8 full-speed sessions, 16 admitted: 14 dropped
	cases := []struct {
		name string
		cfg  func() fleet.Config
	}{
		{"placer", func() fleet.Config {
			g, err := edge.NewGrid(topo, edge.Score)
			if err != nil {
				t.Fatal(err)
			}
			return fleet.Config{Placer: g}
		}},
		{"admission", func() fleet.Config { return fleet.Config{Admission: fleet.Admission{Cluster: cluster}} }},
		{"cells", func() fleet.Config { return fleet.Config{CellCapacity: 4} }},
		{"placer+cells", func() fleet.Config {
			g, err := edge.NewGrid(topo, edge.Score)
			if err != nil {
				t.Fatal(err)
			}
			return fleet.Config{Placer: g, CellCapacity: 4}
		}},
	}
	names := func(specs []fleet.SessionSpec) []fleet.SessionID {
		var out []fleet.SessionID
		for _, sp := range specs {
			out = append(out, sp.ID)
		}
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.cfg()
			c.Specs = specs
			want := fleet.Run(c)

			var calls atomic.Int64
			c = tc.cfg()
			c.Workers = 3
			c.Source = &fleet.SpecSource{
				N:              len(specs),
				MeasuredFrames: specs[0].Config.MeasuredFrames(),
				At: func(i int) fleet.SessionSpec {
					calls.Add(1)
					return specs[i]
				},
			}
			got := fleet.Run(c)
			if n := calls.Load(); n > int64(2*len(specs)) {
				t.Errorf("At called %d times for %d sessions, want at most %d", n, len(specs), 2*len(specs))
			}
			if tc.name == "admission" && len(want.Dropped) == 0 {
				t.Fatal("the admission run dropped no sessions")
			}
			if strings.HasSuffix(tc.name, "cells") && len(want.Contention.SharedCells) == 0 {
				t.Fatal("no cell was oversubscribed")
			}
			if w, g := names(want.Dropped), names(got.Dropped); !reflect.DeepEqual(w, g) {
				t.Errorf("Source run dropped %v, Specs run %v", g, w)
			}
			if !reflect.DeepEqual(want.Contention, got.Contention) {
				t.Errorf("contention diverged:\n%+v\nvs\n%+v", want.Contention, got.Contention)
			}
			ws, gs := want.Summarize(), got.Summarize()
			ws.Workers, ws.WallSeconds, gs.Workers, gs.WallSeconds = 0, 0, 0, 0
			if ws != gs {
				t.Errorf("summaries diverged:\n%+v\nvs\n%+v", ws, gs)
			}
		})
	}
}

// skippingPlacer breaks Placer's mint-once contract: it mints index 0
// twice, every other even index once and no odd index.
type skippingPlacer struct{}

func (skippingPlacer) Bind(n int, at func(i int) fleet.SessionSpec) (func(i int, sp fleet.SessionSpec) fleet.SessionSpec, fleet.GridReport) {
	at(0)
	for i := 0; i < n; i += 2 {
		at(i)
	}
	return func(_ int, sp fleet.SessionSpec) fleet.SessionSpec { return sp }, fleet.GridReport{}
}

// TestCellsCountEachIndexOnce: a grid run's cell sharing counts every
// admitted index once even when its Placer mints some twice and some
// never, so the split factors match a run with no grid.
func TestCellsCountEachIndexOnce(t *testing.T) {
	specs := fleet.SpecsForTest(t, 30)
	want := fleet.Run(fleet.Config{Specs: specs, CellCapacity: 4})
	got := fleet.Run(fleet.Config{Specs: specs, CellCapacity: 4, Placer: skippingPlacer{}})
	if len(want.Contention.SharedCells) == 0 {
		t.Fatal("no cell was oversubscribed")
	}
	if !reflect.DeepEqual(want.Contention.SharedCells, got.Contention.SharedCells) {
		t.Errorf("shared cells %v, want %v", got.Contention.SharedCells, want.Contention.SharedCells)
	}
}
