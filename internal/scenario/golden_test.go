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
	"capacity-probe":            "ff03d781bca57bd88b700ba1bd86ae76ac040221ef6f00e34af1b17299d5a768",
	"churn":                     "716cc8fef13823a621d73ba6b66dc9ad0e7fd5aec1fab5eb81e12b5e6963e523",
	"cluster-outage-failover":   "4469bcdd86d540879651a19b4645adaea7b824faf4b9873a5be60dcb93124e9d",
	"diurnal":                   "1ef2bea7eb892ca82d3f47712abf7db7455be49ba9aa817982a9e62782cb6c07",
	"edge-autoscale-flashcrowd": "fbed48ec56854f6c2a32ed7ca60128d4264ad176ccd12b999c5e6bb14caa6ceb",
	"edge-imbalance":            "1f4abba72e9959a3b28264888567362c104d59e55bb846fb9bb092ca58f941d0",
	"edge-regional-outage":      "a09717e0f4f476b538486a7365e3a5e7b6e3b3ad76902ec804b9faae5208de02",
	"flash-crowd":               "1ab63b8df27d68ebe6e5ce433b8d00e149f9c3584a1e20f0b3e70e700f24aacc",
	"giga-steady":               "0cc1dc0686c34b72c843a6d69f83dc6b5e595a90cde6608665e5dce128dc14f3",
	"net-brownout":              "9b3fbb20e321b4951496e5cd876c93f5ef8184da992b3610141ac3498b05adb8",
	"steady":                    "36868393ff5b2d6dc0de7842e4240bb30fe3ffb7141cdd0eb0299fa4cc4389e5",
}

var goldenPointDigests = map[string]string{
	"capacity-probe@4":  "bd4aa33f8edad6fc2c22cfad89b6d193c1affdc812d408fa1547bfaab90ee0fc",
	"capacity-probe@16": "7ad74257bde250de52cb8732fa88533ded224f80b57113bc70dceae49f0e5870",
	"giga-steady@2000":  "ccceeff617145d6dfc44ecf9d3199eaec2bd6f273b3109a6adef35257d1235e9",
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
