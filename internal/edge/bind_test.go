package edge

import (
	"math/rand"
	"reflect"
	"testing"

	"qvr/internal/fleet"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
)

// randomPhase draws one phase's site overrides for testTopo: each
// site is independently left alone, taken down, resized or derated,
// and a third of the phases override nothing, which recovers every
// site to its declared size.
func randomPhase(rng *rand.Rand) (map[string]int, map[string]float64) {
	if rng.Intn(3) == 0 {
		return nil, nil
	}
	gpus, derate := map[string]int{}, map[string]float64{}
	for _, c := range testTopo().Clusters {
		switch rng.Intn(4) {
		case 1:
			gpus[c.Name] = 0
		case 2:
			gpus[c.Name] = 1 + rng.Intn(4)
		case 3:
			derate[c.Name] = 0.25 + 0.75*rng.Float64()
		}
	}
	return gpus, derate
}

// TestPlaceMatchesBind: Place over a spec slice returns exactly what
// Bind's binding returns for each index. Two grids live through the
// same seeded random history — a population that departs from the
// front and arrives at the back, with outage, derate and recovery
// phases — one placing the slice, the other binding a minter's
// indices. Round for round, the bound specs, the reports (Moves
// included), the sticky maps and the decision counters must match.
// The binding is applied in reverse index order, and each round's
// binding is applied again after the next round's Bind: it may read
// only values fixed when it was made.
func TestPlaceMatchesBind(t *testing.T) {
	mix, _ := fleet.MixByName("mixed")
	mint, err := mix.Minter(pipeline.QVR, 10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var migrated, failedOver, drainedBack int64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		policy := Policies[rng.Intn(len(Policies))]
		placeGrid, bindGrid := newGrid(t, policy), newGrid(t, policy)
		placeObs, bindObs := obs.New(), obs.New()
		placeGrid.SetObs(placeObs)
		bindGrid.SetObs(bindObs)

		type round struct {
			lo   int
			bind func(int, fleet.SessionSpec) fleet.SessionSpec
			want []fleet.SessionSpec
		}
		var prev *round
		lo, hi := 0, 10+rng.Intn(30)
		for r := 0; r < 8; r++ {
			gpus, derate := randomPhase(rng)
			for _, g := range []*Grid{placeGrid, bindGrid} {
				if err := g.BeginPhase(gpus, derate); err != nil {
					t.Fatal(err)
				}
			}
			lo += rng.Intn(6)
			hi += rng.Intn(14)
			specs := make([]fleet.SessionSpec, 0, hi-lo)
			for g := lo; g < hi; g++ {
				specs = append(specs, mint(g))
			}

			want, wantReport := placeGrid.Place(specs)
			base := lo
			at := func(i int) fleet.SessionSpec { return mint(base + i) }
			bind, report := bindGrid.Bind(len(specs), at)
			if !reflect.DeepEqual(report, wantReport) {
				t.Fatalf("seed %d round %d: reports diverge:\nPlace %+v\nBind  %+v", seed, r, wantReport, report)
			}
			if !reflect.DeepEqual(bindGrid.assigned, placeGrid.assigned) {
				t.Fatalf("seed %d round %d: sticky maps diverge", seed, r)
			}
			if prev != nil {
				for i, w := range prev.want {
					if got := prev.bind(i, mint(prev.lo+i)); !reflect.DeepEqual(got, w) {
						t.Fatalf("seed %d round %d: the previous round's binding of %s changed after this round's Bind", seed, r, w.ID)
					}
				}
			}
			got := make([]fleet.SessionSpec, len(specs))
			for i := len(specs) - 1; i >= 0; i-- {
				got[i] = bind(i, at(i))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d round %d: session %s binds to\n%+v\nPlace gave\n%+v", seed, r, want[i].ID, got[i], want[i])
				}
			}
			prev = &round{lo: base, bind: bind, want: want}
		}
		if !reflect.DeepEqual(bindObs.Snapshot(), placeObs.Snapshot()) {
			t.Fatalf("seed %d: decision counters diverge", seed)
		}
		snap := bindObs.Snapshot()
		migrated += snap.Counter(obs.CPlaceMigrated)
		failedOver += snap.Counter(obs.CPlaceFailedOver)
		drainedBack += snap.Counter(obs.CPlaceDrainback)
	}
	// The histories must reach every kind of decision, or the
	// equivalence above proves less than it claims.
	if migrated == 0 || failedOver == 0 || drainedBack == 0 {
		t.Fatalf("histories too tame: %d migrations, %d failovers, %d drain-backs", migrated, failedOver, drainedBack)
	}
}
