package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"qvr/internal/fleet"
)

// goldenTimelineDigests is the SHA-256 of the JSON of every built-in
// timeline's science at tiny: the phase summaries, the roll-up, the
// autoscale trip report and the per-phase fidelity reports.
// goldenPointDigests pins RunPoint's results (wall time zeroed) at a
// few session counts the capacity probe and the fast path visit. Both
// must hold at any worker count, so they pin the fleet engine, the
// scenario driver and the surrogate byte for byte.
//
// Re-record a digest only in a change that alters the simulated
// science on purpose and says so in CHANGES.md; never to make a
// refactor or a speedup pass.
var goldenTimelineDigests = map[string]string{
	"capacity-probe":            "b7a23b20ffcd24e968adb55fef23421a53a4777f5f87f774a1a79e2338242940",
	"churn":                     "34d3339ad3697d3e202dc09ecac80736b52ba4de2c59eb417602dfca7d71de59",
	"cluster-outage-failover":   "517574c2d57cb707bf7f9e97200d50d43f79056e0ed728454cd8caba2104343b",
	"diurnal":                   "eee2bec40f06256b8d12d943d122ce83508a9f918ac2acdd034a7fd5be3d5571",
	"edge-autoscale-flashcrowd": "2b758630dc4412328f50222ded11614c0a521e50fb1b3272c865750a36541f88",
	"edge-imbalance":            "5b7a576f526f6d8db6f22701efdfb129d84e577a923b044b6cc443927eee20ec",
	"edge-regional-outage":      "c681ebf3010e50e6d4c9c6808e9256f941e3086f57ab323114108f5bd5ca6b2f",
	"flash-crowd":               "10e111df1476246fa70b567a06f587db5c8314d7a7897228d2073224fcf7e394",
	"giga-steady":               "21d1141781f5a2af212e20ee1623c0a4513173d951375c3024c34abd3f6bb1b3",
	"net-brownout":              "361f32595a561bd0bbabc5a397b772ef3a179a1aa0ccc6ac3d252cda1fde4442",
	"steady":                    "196affe634de99fe2c5ddefad437809f6b64a4225c49ebe06be55c61a98b43cf",
}

var goldenPointDigests = map[string]string{
	"capacity-probe@4":  "03feca05f45dda29e39ebc29b0d11a50f08c5c6472eb4243a4c1a14f9ce476bb",
	"capacity-probe@16": "d6593fe8d27da8903abf502daca1f6b3ed29eb46361e4b86a2a772ee9f5cc40f",
	"giga-steady@2000":  "99221fc11976d55affcabfeedb81ee6bcb05869629485044e4118917cbc2aace",
}

func digestJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func TestBuiltinGoldenDigests(t *testing.T) {
	seen := 0
	for _, name := range BuiltinNames() {
		if name == "mega-steady" {
			continue // thousands of exact sessions; audited by the scale smoke
		}
		want, ok := goldenTimelineDigests[name]
		if !ok {
			t.Errorf("built-in %q has no golden digest", name)
			continue
		}
		seen++
		sc := mustBuiltin(t, name)
		for _, workers := range []int{1, 4} {
			opt := tiny
			opt.Workers = workers
			r := mustRun(t, sc, opt)
			sums, roll := phaseDigest(r)
			fids := make([]*fleet.FidelityReport, len(r.Phases))
			for i, p := range r.Phases {
				fids[i] = p.Fleet.Fidelity
			}
			got := digestJSON(t, struct {
				Sums      []fleet.PhaseSummary
				Roll      fleet.Rollup
				Autoscale *fleet.AutoscaleReport
				Fids      []*fleet.FidelityReport
			}{sums, roll, r.Autoscale, fids})
			if got != want {
				t.Errorf("%s (workers %d): digest = %s, want %s", name, workers, got, want)
			}
		}
	}
	if seen != len(goldenTimelineDigests) {
		t.Errorf("golden table names %d built-ins, the registry %d", len(goldenTimelineDigests), seen)
	}
}

func TestPointGoldenDigests(t *testing.T) {
	// giga-steady runs at its own 4+2 frame budget: at tiny's 12 frames
	// its five-session exact sample cannot resolve target_share inside
	// the declared tolerance, and the point is refuted.
	for _, p := range []struct {
		name string
		n    int
		opt  Options
	}{{"capacity-probe", 4, tiny}, {"capacity-probe", 16, tiny}, {"giga-steady", 2000, Options{}}} {
		key := fmt.Sprintf("%s@%d", p.name, p.n)
		sc := mustBuiltin(t, p.name)
		for _, workers := range []int{1, 4} {
			opt := p.opt
			opt.Workers = workers
			pt, err := RunPoint(sc, p.n, opt)
			if err != nil {
				t.Fatal(err)
			}
			pt.WallSeconds = 0
			if got := digestJSON(t, pt); got != goldenPointDigests[key] {
				t.Errorf("%s (workers %d): digest = %s, want %s", key, workers, got, goldenPointDigests[key])
			}
		}
	}
}
