package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"qvr/internal/gpu"
	"qvr/internal/netsim"
	"qvr/internal/pipeline"
)

// testSpecs builds a small deterministic fleet (short sessions keep
// the race-enabled runs fast).
func testSpecs(t *testing.T, n int) []SessionSpec {
	t.Helper()
	mix, ok := MixByName("mixed")
	if !ok {
		t.Fatal("mixed mix missing")
	}
	specs, err := mix.Specs(n, pipeline.QVR, 20, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// sessionDigest reduces one session to comparable numbers.
func sessionDigest(sr SessionResult) [4]float64 {
	return [4]float64{
		sr.Stats.AvgMTPSeconds,
		sr.Stats.FPS,
		sr.Stats.AvgBytesSent,
		sr.Stats.AvgE1,
	}
}

func digest(r Result) [][4]float64 {
	out := make([][4]float64, len(r.Sessions))
	for i, sr := range r.Sessions {
		out[i] = sessionDigest(sr)
	}
	return out
}

// TestWorkerCountInvariance is the fleet engine's core contract: the
// goroutine schedule must never leak into the science. Identical specs
// must produce identical per-session results for any pool size.
func TestWorkerCountInvariance(t *testing.T) {
	specs := testSpecs(t, 12)
	var prev [][4]float64
	for _, workers := range []int{1, 3, 8} {
		r := Run(Config{Specs: specs, Workers: workers})
		if len(r.Sessions) != len(specs) {
			t.Fatalf("workers=%d: got %d sessions, want %d", workers, len(r.Sessions), len(specs))
		}
		d := digest(r)
		if prev != nil && !reflect.DeepEqual(prev, d) {
			t.Fatalf("workers=%d changed per-session results", workers)
		}
		prev = d
	}
}

// TestSessionsAreHeterogeneousAndOrdered checks the mix expansion:
// named sessions come back in spec order with distinct seeds.
func TestSessionsAreHeterogeneousAndOrdered(t *testing.T) {
	specs := testSpecs(t, 10)
	r := Run(Config{Specs: specs, Workers: 4})
	seeds := map[int64]bool{}
	apps := map[string]bool{}
	for i, sr := range r.Sessions {
		if sr.Name != specs[i].Name {
			t.Fatalf("session %d out of order: got %q want %q", i, sr.Name, specs[i].Name)
		}
		seeds[sr.Config.Seed] = true
		apps[sr.Config.App.Name] = true
	}
	if len(seeds) != len(specs) {
		t.Errorf("expected unique seeds, got %d for %d sessions", len(seeds), len(specs))
	}
	if len(apps) < 3 {
		t.Errorf("mixed fleet should span several apps, got %d", len(apps))
	}
}

// TestMixSpecsDeterministic: same inputs, same fleet.
func TestMixSpecsDeterministic(t *testing.T) {
	mix, _ := MixByName("mixed")
	a, err := mix.Specs(16, pipeline.QVR, 20, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := mix.Specs(16, pipeline.QVR, 20, 10, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Specs is not deterministic for identical inputs")
	}
	c, _ := mix.Specs(16, pipeline.QVR, 20, 10, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different base seeds produced identical fleets")
	}
}

// TestAdmissionDropsBeyondQueueLimit: a 1-GPU cluster with the default
// 4 sessions/GPU and 2x queue factor serves at most 8 sessions; the
// tail of a 12-session fleet is dropped and reported.
func TestAdmissionDropsBeyondQueueLimit(t *testing.T) {
	specs := testSpecs(t, 12)
	cluster := gpu.DefaultRemote()
	cluster.GPUs = 1
	r := Run(Config{
		Specs:     specs,
		Workers:   4,
		Admission: Admission{Cluster: cluster},
	})
	if got, want := len(r.Dropped), 4; got != want {
		t.Fatalf("dropped %d sessions, want %d", got, want)
	}
	if got, want := len(r.Sessions), 8; got != want {
		t.Fatalf("admitted %d sessions, want %d", got, want)
	}
	for i, sp := range r.Dropped {
		if sp.Name != specs[8+i].Name {
			t.Errorf("dropped[%d] = %q, want tail spec %q", i, sp.Name, specs[8+i].Name)
		}
	}
	if r.Contention.Load != 2.0 {
		t.Errorf("load = %v, want 2.0", r.Contention.Load)
	}
	s := r.Summarize()
	if s.Dropped != 4 {
		t.Errorf("summary dropped = %d, want 4", s.Dropped)
	}
	// Dropped sessions get 0 FPS: they count against the fleet's
	// 90-FPS share, so at most 8 of the 12 requested can meet target.
	if s.TargetShare > 8.0/12 {
		t.Errorf("target share %v ignores dropped sessions", s.TargetShare)
	}
}

// TestContentionSlowsRemoteChain: the same fleet on an overloaded
// cluster must see strictly higher tail latency than on an uncontended
// one, via the queue delay and the shared per-GPU throughput.
func TestContentionSlowsRemoteChain(t *testing.T) {
	specs := testSpecs(t, 8)
	free := Run(Config{Specs: specs, Workers: 4})

	cluster := gpu.DefaultRemote()
	cluster.GPUs = 1
	loaded := Run(Config{
		Specs:     specs,
		Workers:   4,
		Admission: Admission{Cluster: cluster},
	})
	if loaded.Contention.QueueSeconds <= 0 {
		t.Fatalf("overloaded cluster should charge a queue delay, got %v", loaded.Contention.QueueSeconds)
	}
	for _, sr := range loaded.Sessions {
		if sr.Config.RemoteQueueSeconds != loaded.Contention.QueueSeconds {
			t.Fatalf("session %q queue delay = %v, want %v",
				sr.Name, sr.Config.RemoteQueueSeconds, loaded.Contention.QueueSeconds)
		}
	}
	fp, lp := free.Summarize().P95MTPMs, loaded.Summarize().P95MTPMs
	if lp <= fp {
		t.Errorf("p95 MTP under contention (%v) should exceed uncontended (%v)", lp, fp)
	}
}

// TestCellSharingDeratesBandwidth: oversubscribed cells split their
// bandwidth; sessions on them record a scaled Condition.
func TestCellSharingDeratesBandwidth(t *testing.T) {
	specs := testSpecs(t, 10)
	r := Run(Config{Specs: specs, Workers: 4, CellCapacity: 2})
	if len(r.Contention.SharedCells) == 0 {
		t.Fatal("10 sessions over capacity-2 cells should share at least one cell")
	}
	for name, factor := range r.Contention.SharedCells {
		if factor <= 0 || factor >= 1 {
			t.Errorf("cell %q share factor %v out of (0,1)", name, factor)
		}
		nominal, ok := netsim.ConditionByName(name)
		if !ok {
			t.Fatalf("unknown shared cell %q", name)
		}
		for _, sr := range r.Sessions {
			if sr.Config.Network.Name != name {
				continue
			}
			want := nominal.BandwidthBps * factor
			if math.Abs(sr.Config.Network.BandwidthBps-want) > 1 {
				t.Errorf("session %q on %q: bandwidth %v, want %v",
					sr.Name, name, sr.Config.Network.BandwidthBps, want)
			}
		}
	}
}

// TestSummaryPercentilesMonotone sanity-checks the aggregate metrics.
func TestSummaryPercentilesMonotone(t *testing.T) {
	r := Run(Config{Specs: testSpecs(t, 8), Workers: 4})
	s := r.Summarize()
	if !(s.P50MTPMs > 0 && s.P50MTPMs <= s.P95MTPMs && s.P95MTPMs <= s.P99MTPMs) {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v", s.P50MTPMs, s.P95MTPMs, s.P99MTPMs)
	}
	if s.AggregateFPS <= 0 || s.AggregateMBps <= 0 {
		t.Errorf("aggregate throughput should be positive: fps=%v mbps=%v", s.AggregateFPS, s.AggregateMBps)
	}
	if want := s.MeanFPS * float64(s.Sessions); math.Abs(s.AggregateFPS-want) > 1e-9 {
		t.Errorf("aggregate fps %v inconsistent with mean %v x %d", s.AggregateFPS, s.MeanFPS, s.Sessions)
	}
	if s.TargetShare < 0 || s.TargetShare > 1 {
		t.Errorf("target share %v out of [0,1]", s.TargetShare)
	}
}

// TestEmptyFleet: a zero-session run must not panic or divide by zero.
func TestEmptyFleet(t *testing.T) {
	r := Run(Config{})
	if len(r.Sessions) != 0 || len(r.Dropped) != 0 {
		t.Fatalf("empty fleet produced sessions: %+v", r)
	}
	s := r.Summarize()
	if s.P99MTPMs != 0 || s.AggregateFPS != 0 {
		t.Errorf("empty summary should be zero: %+v", s)
	}
}

// finite fails the test if any summary metric is NaN or infinite.
func finite(t *testing.T, label string, s Summary) {
	t.Helper()
	for name, v := range map[string]float64{
		"p50": s.P50MTPMs, "p95": s.P95MTPMs, "p99": s.P99MTPMs,
		"mean_fps": s.MeanFPS, "agg_fps": s.AggregateFPS,
		"agg_mbps": s.AggregateMBps, "target_share": s.TargetShare,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %v, want finite", label, name, v)
		}
	}
}

// TestSummarizeSingleSession: percentiles over one session's frames
// must be sane (p50 <= p95 <= p99, everything finite).
func TestSummarizeSingleSession(t *testing.T) {
	r := Run(Config{Specs: testSpecs(t, 1)})
	s := r.Summarize()
	finite(t, "single", s)
	if s.Sessions != 1 || s.Dropped != 0 {
		t.Fatalf("single-session shape wrong: %+v", s)
	}
	if !(s.P50MTPMs > 0 && s.P50MTPMs <= s.P95MTPMs && s.P95MTPMs <= s.P99MTPMs) {
		t.Errorf("single-session percentiles not monotone: %+v", s)
	}
	if s.MeanFPS != s.AggregateFPS {
		t.Errorf("one session: mean fps %v != aggregate %v", s.MeanFPS, s.AggregateFPS)
	}
	if s.TargetShare != 0 && s.TargetShare != 1 {
		t.Errorf("one session: target share must be 0 or 1, got %v", s.TargetShare)
	}
}

// TestSummarizeAllDropped: a fleet whose every session was refused
// must report zero percentiles and zero target share, never NaN.
func TestSummarizeAllDropped(t *testing.T) {
	r := Result{Dropped: testSpecs(t, 5)}
	s := r.Summarize()
	finite(t, "all-dropped", s)
	if s.Sessions != 0 || s.Dropped != 5 {
		t.Fatalf("all-dropped shape wrong: %+v", s)
	}
	if s.P99MTPMs != 0 || s.AggregateFPS != 0 {
		t.Errorf("all-dropped metrics should be zero: %+v", s)
	}
	if s.TargetShare != 0 {
		t.Errorf("all-dropped target share = %v, want 0", s.TargetShare)
	}
}

// TestSummarizeZeroWithDropped: zero admitted sessions with a non-zero
// drop list exercises the len(Sessions)+len(Dropped) denominator.
func TestSummarizeZeroWithDropped(t *testing.T) {
	finite(t, "zero+dropped", Result{Dropped: testSpecs(t, 1)}.Summarize())
	finite(t, "zero", Result{}.Summarize())
}

// TestOutageFailsOverToLocal: an enabled zero-GPU cluster (a total
// remote outage) must push every session onto local-only rendering
// instead of dropping it, and the degradation must show up in the
// latency tail.
func TestOutageFailsOverToLocal(t *testing.T) {
	specs := testSpecs(t, 6)
	healthy := Run(Config{Specs: specs, Workers: 4,
		Admission: Admission{Cluster: gpu.DefaultRemote()}})
	outage := Run(Config{Specs: specs, Workers: 4,
		Admission: Admission{Cluster: gpu.DefaultRemote().WithGPUs(0), Enabled: true}})

	if len(outage.Dropped) != 0 {
		t.Fatalf("outage dropped %d sessions, want failover instead", len(outage.Dropped))
	}
	if got := outage.Contention.FailedOver; got != len(specs) {
		t.Fatalf("failed over %d sessions, want %d", got, len(specs))
	}
	for _, sr := range outage.Sessions {
		if sr.Config.Design != pipeline.LocalOnly {
			t.Errorf("session %q still on design %v during outage", sr.Name, sr.Config.Design)
		}
	}
	if s := outage.Summarize(); s.FailedOver != len(specs) {
		t.Errorf("summary failed_over = %d, want %d", s.FailedOver, len(specs))
	}
	hp, op := healthy.Summarize().P99MTPMs, outage.Summarize().P99MTPMs
	if op <= hp {
		t.Errorf("outage p99 (%v) should exceed healthy p99 (%v)", op, hp)
	}
	// A disabled zero cluster (Enabled unset) still means "no
	// admission", not an outage.
	free := Run(Config{Specs: specs, Workers: 4})
	if free.Contention.FailedOver != 0 {
		t.Errorf("disabled admission must not fail anyone over: %+v", free.Contention)
	}
}

// TestSpecsRangeMatchesSpecs: phase-by-phase arrivals must reproduce
// the exact sessions a single up-front expansion would have made.
func TestSpecsRangeMatchesSpecs(t *testing.T) {
	mix, _ := MixByName("mixed")
	all, err := mix.Specs(12, pipeline.QVR, 20, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	head, err := mix.SpecsRange(0, 5, pipeline.QVR, 20, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := mix.SpecsRange(5, 7, pipeline.QVR, 20, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(head, tail...); !reflect.DeepEqual(got, all) {
		t.Fatal("SpecsRange(0,5)+SpecsRange(5,7) != Specs(12)")
	}
	if _, err := mix.SpecsRange(-1, 3, pipeline.QVR, 20, 10, 1); err == nil {
		t.Error("negative start should error")
	}
	if _, err := mix.SpecsRange(0, 0, pipeline.QVR, 20, 10, 1); err == nil {
		t.Error("zero count should error")
	}
}

// TestSessionNameMatchesSprintf: the minter's name builder must spell
// every session exactly as the "%s-%03d" format it replaces.
func TestSessionNameMatchesSprintf(t *testing.T) {
	for _, tier := range []string{"", "budget-lte", "a-tier-name-longer-than-thirty-two-bytes"} {
		for _, g := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 12345, 1_000_000, 1<<62 + 3} {
			if got, want := sessionName(tier, g), fmt.Sprintf("%s-%03d", tier, g); got != want {
				t.Errorf("sessionName(%q, %d) = %q, want %q", tier, g, got, want)
			}
		}
	}
}
