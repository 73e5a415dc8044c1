package scenario

import (
	"encoding/json"
	"math"
	"testing"

	"qvr/internal/fleet"
	"qvr/internal/framesink"
	"qvr/internal/netsim"
	"qvr/internal/pipeline"
)

// tiny keeps race-enabled scenario runs fast: every phase simulates a
// miniature window.
var tiny = Options{FramesOverride: 12, WarmupOverride: Warmup(4)}

func mustBuiltin(t *testing.T, name string) Scenario {
	t.Helper()
	sc, err := Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func mustRun(t *testing.T, sc Scenario, opt Options) Result {
	t.Helper()
	r, err := Run(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// phaseDigest reduces a run to its science: phase summaries and the
// roll-up, which is exactly what the CLI reports.
func phaseDigest(r Result) ([]fleet.PhaseSummary, fleet.Rollup) {
	sums := make([]fleet.PhaseSummary, len(r.Phases))
	for i, p := range r.Phases {
		sums[i] = p.Summary
	}
	return sums, r.Rollup
}

// TestScenarioDeterministicAcrossWorkers is the engine's headline
// contract (and the PR's acceptance criterion): the same scenario
// must produce byte-identical reports for any worker pool size, run
// after run.
func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	sc := mustBuiltin(t, "cluster-outage-failover")
	var prevJSON []byte
	for _, workers := range []int{1, 3, 7} {
		r := mustRun(t, sc, Options{Workers: workers, FramesOverride: tiny.FramesOverride, WarmupOverride: tiny.WarmupOverride})
		sums, roll := phaseDigest(r)
		blob, err := json.Marshal(struct {
			Sums []fleet.PhaseSummary
			Roll fleet.Rollup
		}{sums, roll})
		if err != nil {
			t.Fatal(err)
		}
		if prevJSON != nil && string(prevJSON) != string(blob) {
			t.Fatalf("workers=%d changed the report:\n%s\nvs\n%s", workers, prevJSON, blob)
		}
		prevJSON = blob
	}
}

// TestClusterOutageFailover walks the acceptance scenario: P99
// degrades during the outage phase (every session failed over to
// local-only) and recovers when the cluster comes back.
func TestClusterOutageFailover(t *testing.T) {
	r := mustRun(t, mustBuiltin(t, "cluster-outage-failover"), tiny)
	if len(r.Phases) != 3 {
		t.Fatalf("want 3 phases, got %d", len(r.Phases))
	}
	steady, outage, failback := r.Phases[0], r.Phases[1], r.Phases[2]

	if outage.Summary.Summary.FailedOver != outage.Active {
		t.Errorf("outage failed over %d of %d sessions, want all",
			outage.Summary.Summary.FailedOver, outage.Active)
	}
	if n := len(outage.Fleet.Dropped); n != 0 {
		t.Errorf("outage dropped %d sessions; failover must not drop", n)
	}
	for _, sr := range outage.Fleet.Sessions {
		if sr.Config.Design != pipeline.LocalOnly {
			t.Errorf("session %q not failed over during outage", sr.Name)
		}
	}
	sp99, op99, fp99 := steady.Summary.Summary.P99MTPMs, outage.Summary.Summary.P99MTPMs, failback.Summary.Summary.P99MTPMs
	if !(op99 > sp99 && op99 > fp99) {
		t.Errorf("outage p99 %.1f ms should exceed steady %.1f and failback %.1f", op99, sp99, fp99)
	}
	if !r.Rollup.Disrupted {
		t.Errorf("roll-up missed the disruption: %+v", r.Rollup)
	}
	if r.Rollup.WorstPhase != "outage" {
		t.Errorf("worst phase = %q, want outage", r.Rollup.WorstPhase)
	}
	if !r.Rollup.Recovered || r.Rollup.RecoverySeconds != 0 {
		t.Errorf("failback should recover immediately: %+v", r.Rollup)
	}
	if r.Rollup.MaxFailedOver != outage.Active {
		t.Errorf("roll-up max failed-over = %d, want %d", r.Rollup.MaxFailedOver, outage.Active)
	}
}

// TestFlashCrowdPopulation checks the population arithmetic: the
// spike sextuples the fleet, the 2-GPU cluster (16 admit slots) drops
// the overflow, and the drain lets the crowd go.
func TestFlashCrowdPopulation(t *testing.T) {
	r := mustRun(t, mustBuiltin(t, "flash-crowd"), tiny)
	if len(r.Phases) != 4 {
		t.Fatalf("want 4 phases, got %d", len(r.Phases))
	}
	base, spike, drain, settled := r.Phases[0], r.Phases[1], r.Phases[2], r.Phases[3]

	for _, c := range []struct {
		name string
		p    PhaseResult
		want int
	}{
		{"baseline", base, 8}, {"spike", spike, 48}, {"drain", drain, 12}, {"settled", settled, 8},
	} {
		if c.p.Active != c.want {
			t.Errorf("%s active = %d, want %d", c.name, c.p.Active, c.want)
		}
	}
	if base.Arrived != 8 || spike.Arrived != 40 {
		t.Errorf("arrivals wrong: baseline %d (want 8), spike %d (want 40)", base.Arrived, spike.Arrived)
	}
	if drain.Departed != 36 {
		t.Errorf("drain departed = %d, want 36", drain.Departed)
	}
	// 2 GPUs x 4 sessions/GPU x 2.0 queue factor = 16 admit slots.
	if got := len(spike.Fleet.Dropped); got != 48-16 {
		t.Errorf("spike dropped %d sessions, want %d", got, 48-16)
	}
	if len(drain.Fleet.Dropped) != 0 || len(settled.Fleet.Dropped) != 0 {
		t.Errorf("post-spike phases should drop nobody: drain %d, settled %d",
			len(drain.Fleet.Dropped), len(settled.Fleet.Dropped))
	}
	// Carried identity: every baseline user is still there mid-spike.
	inSpike := map[string]bool{}
	for _, sr := range spike.Fleet.Sessions {
		inSpike[sr.Name] = true
	}
	for _, sp := range spike.Fleet.Dropped {
		inSpike[sp.Name] = true
	}
	for _, sr := range base.Fleet.Sessions {
		if !inSpike[sr.Name] {
			t.Errorf("baseline session %q vanished during the spike", sr.Name)
		}
	}
}

// TestPhaseSeedsDiffer: a carried session re-simulates each phase
// from a fresh derived seed, not a replay of the previous window.
func TestPhaseSeedsDiffer(t *testing.T) {
	r := mustRun(t, mustBuiltin(t, "steady"), tiny)
	seeds := map[string]map[int64]bool{}
	for _, p := range r.Phases {
		for _, sr := range p.Fleet.Sessions {
			if seeds[sr.Name] == nil {
				seeds[sr.Name] = map[int64]bool{}
			}
			seeds[sr.Name][sr.Config.Seed] = true
		}
	}
	for name, set := range seeds {
		if len(set) != len(r.Phases) {
			t.Errorf("session %q has %d distinct phase seeds, want %d", name, len(set), len(r.Phases))
		}
	}
}

// TestChurnReplacesOldest: each churn phase keeps the population size
// but swaps the oldest half for brand-new arrivals.
func TestChurnReplacesOldest(t *testing.T) {
	r := mustRun(t, mustBuiltin(t, "churn"), tiny)
	names := func(p PhaseResult) map[string]bool {
		set := map[string]bool{}
		for _, sr := range p.Fleet.Sessions {
			set[sr.Name] = true
		}
		for _, sp := range p.Fleet.Dropped {
			set[sp.Name] = true
		}
		return set
	}
	prev := names(r.Phases[0])
	for _, p := range r.Phases[1:] {
		if p.Active != 16 || p.Arrived != 8 || p.Departed != 8 {
			t.Errorf("phase %q population edits wrong: active=%d arrived=%d departed=%d",
				p.Phase.Name, p.Active, p.Arrived, p.Departed)
		}
		cur := names(p)
		carried := 0
		for n := range cur {
			if prev[n] {
				carried++
			}
		}
		if carried != 8 {
			t.Errorf("phase %q carried %d sessions, want 8", p.Phase.Name, carried)
		}
		prev = cur
	}
}

// TestNetBrownoutDeratesAndRecovers: during the brownout the derated
// cells' sessions see scaled bandwidth; afterwards the nominal
// conditions are restored (derates must not leak across phases).
func TestNetBrownoutDeratesAndRecovers(t *testing.T) {
	r := mustRun(t, mustBuiltin(t, "net-brownout"), tiny)
	brown, recovered := r.Phases[1], r.Phases[2]
	scaled := 0
	for _, sr := range brown.Fleet.Sessions {
		cond := sr.Config.Network
		nominal, ok := netsim.ConditionByName(cond.Name)
		if !ok {
			t.Fatalf("session %q on unknown condition %q", sr.Name, cond.Name)
		}
		want := nominal.BandwidthBps
		if cond.Name == "Wi-Fi" || cond.Name == "4G LTE" {
			want *= 0.15
			scaled++
		}
		if cond.BandwidthBps != want {
			t.Errorf("brownout session %q bandwidth %v, want %v", sr.Name, cond.BandwidthBps, want)
		}
	}
	if scaled == 0 {
		t.Fatal("brownout touched no sessions; mix should include Wi-Fi/LTE users")
	}
	for _, sr := range recovered.Fleet.Sessions {
		nominal, _ := netsim.ConditionByName(sr.Config.Network.Name)
		if sr.Config.Network.BandwidthBps != nominal.BandwidthBps {
			t.Errorf("derate leaked into recovery for %q: %v", sr.Name, sr.Config.Network.BandwidthBps)
		}
	}
	if brown.Summary.Summary.P99MTPMs <= r.Phases[0].Summary.Summary.P99MTPMs {
		t.Errorf("brownout p99 %.1f ms should exceed clear-sky %.1f ms",
			brown.Summary.Summary.P99MTPMs, r.Phases[0].Summary.Summary.P99MTPMs)
	}
}

// TestEdgeRegionalOutage walks the grid acceptance scenario: the EU
// site's sessions migrate to surviving clusters (migrations > 0, zero
// dropped, zero failed over), pay the handoff in the outage window,
// and sticky placement holds them after failback.
func TestEdgeRegionalOutage(t *testing.T) {
	r := mustRun(t, mustBuiltin(t, "edge-regional-outage"), tiny)
	if len(r.Phases) != 3 {
		t.Fatalf("want 3 phases, got %d", len(r.Phases))
	}
	steady, outage, failback := r.Phases[0], r.Phases[1], r.Phases[2]

	for _, p := range r.Phases {
		if p.Fleet.Contention.Grid == nil {
			t.Fatalf("phase %q has no grid report", p.Phase.Name)
		}
		if n := len(p.Fleet.Dropped); n != 0 {
			t.Errorf("phase %q dropped %d sessions; the grid must never drop", p.Phase.Name, n)
		}
		if n := p.Summary.Summary.FailedOver; n != 0 {
			t.Errorf("phase %q failed %d over; survivors had capacity for everyone", p.Phase.Name, n)
		}
	}

	// The steady phase must use the EU site, or the outage is vacuous.
	euUsers := 0
	for _, sr := range steady.Fleet.Sessions {
		if sr.Config.RemoteClusterName == "eu-central" {
			euUsers++
		}
	}
	if euUsers == 0 {
		t.Fatal("steady phase placed nobody on eu-central")
	}

	if got := outage.Summary.Summary.Migrated; got != euUsers {
		t.Errorf("outage migrated %d sessions, want the eu-central population %d", got, euUsers)
	}
	handoffs := 0
	for _, sr := range outage.Fleet.Sessions {
		if sr.Config.RemoteClusterName == "eu-central" {
			t.Errorf("session %q still bound to the dead site", sr.Name)
		}
		if sr.Config.RemoteHandoffSeconds > 0 {
			handoffs++
		}
	}
	if handoffs != euUsers {
		t.Errorf("%d sessions paid the handoff, want %d", handoffs, euUsers)
	}
	for _, c := range outage.Fleet.Contention.Grid.Clusters {
		if c.Name == "eu-central" && (c.GPUs != 0 || c.Assigned != 0) {
			t.Errorf("dead site still reports capacity: %+v", c)
		}
	}

	// Failback: the site is up again and drain-back returns refugees
	// home (every failback move targets eu-central).
	if got := failback.Summary.Summary.Migrated; got == 0 {
		t.Errorf("failback should drain sessions back to the recovered site")
	}
	for _, mv := range failback.Fleet.Contention.Grid.Moves {
		if mv.To != "eu-central" {
			t.Errorf("failback move %+v should target the recovered site", mv)
		}
	}
	if want := euUsers + failback.Summary.Summary.Migrated; r.Rollup.TotalMigrated != want {
		t.Errorf("roll-up total migrations = %d, want %d", r.Rollup.TotalMigrated, want)
	}
}

// TestEdgeImbalanceHotSpot: nearest-RTT packs the small AP site to its
// queue ceiling during the rush while capacity idles elsewhere — the
// behaviour the score policy exists to fix.
func TestEdgeImbalanceHotSpot(t *testing.T) {
	r := mustRun(t, mustBuiltin(t, "edge-imbalance"), tiny)
	rush := r.Phases[1]
	var ap, us fleet.ClusterLoad
	for _, c := range rush.Fleet.Contention.Grid.Clusters {
		switch c.Name {
		case "ap-south":
			ap = c
		case "us-west":
			us = c
		}
	}
	if ap.Load <= 1 {
		t.Errorf("rush should oversubscribe ap-south, load %v", ap.Load)
	}
	if ap.QueueMs <= 0 {
		t.Errorf("oversubscribed ap-south should charge a queue delay")
	}
	if us.Load >= ap.Load {
		t.Errorf("imbalance missing: us-west load %v vs ap-south %v", us.Load, ap.Load)
	}
	// The score policy on the same file spreads the same rush.
	sc := mustBuiltin(t, "edge-imbalance")
	sc.Placement = "score"
	balanced := mustRun(t, sc, tiny)
	var apScore fleet.ClusterLoad
	for _, c := range balanced.Phases[1].Fleet.Contention.Grid.Clusters {
		if c.Name == "ap-south" {
			apScore = c
		}
	}
	if apScore.Load >= ap.Load {
		t.Errorf("score policy should relieve the hot spot: %v vs nearest-rtt %v",
			apScore.Load, ap.Load)
	}
}

// TestEdgeScenarioDeterministicAcrossWorkers extends the determinism
// contract to grid mode (the PR's acceptance criterion).
func TestEdgeScenarioDeterministicAcrossWorkers(t *testing.T) {
	sc := mustBuiltin(t, "edge-regional-outage")
	var prevJSON []byte
	for _, workers := range []int{1, 3, 7} {
		r := mustRun(t, sc, Options{Workers: workers, FramesOverride: tiny.FramesOverride, WarmupOverride: tiny.WarmupOverride})
		sums, roll := phaseDigest(r)
		grids := make([]*fleet.GridReport, len(r.Phases))
		for i, p := range r.Phases {
			grids[i] = p.Fleet.Contention.Grid
		}
		blob, err := json.Marshal(struct {
			Sums  []fleet.PhaseSummary
			Roll  fleet.Rollup
			Grids []*fleet.GridReport
		}{sums, roll, grids})
		if err != nil {
			t.Fatal(err)
		}
		if prevJSON != nil && string(prevJSON) != string(blob) {
			t.Fatalf("workers=%d changed the grid report:\n%s\nvs\n%s", workers, prevJSON, blob)
		}
		prevJSON = blob
	}
}

// TestRunRejectsInvalidScenario: the executor re-validates, so a
// hand-built bad Scenario cannot reach the fleet engine.
func TestRunRejectsInvalidScenario(t *testing.T) {
	if _, err := Run(Scenario{Name: "x"}, tiny); err == nil {
		t.Error("scenario with no phases should be rejected")
	}
	bad := mustBuiltin(t, "steady")
	bad.Phases[0].NetScale = map[string]float64{"Dialup": 0.5}
	if _, err := Run(bad, tiny); err == nil {
		t.Error("unknown net-scale condition should be rejected")
	}
}

// TestArrivalRateAndExplicitEdits covers the rate-based and explicit
// population edits the built-ins don't use together.
func TestArrivalRateAndExplicitEdits(t *testing.T) {
	sc, err := ParseString(`
[scenario]
name = edits
frames = 12
warmup = 4

[phase seedphase]
duration = 10
sessions = 6

[phase growth]
duration = 20
arrival-rate = 0.2

[phase exodus]
duration = 10
depart = 3
arrive = 1
`)
	if err != nil {
		t.Fatal(err)
	}
	// The Options zero value must keep the scenario's own frame
	// budget (frames=12, warmup=4 from the file).
	r := mustRun(t, sc, Options{})
	if got := r.Phases[1].Active; got != 10 {
		t.Errorf("growth: 6 + round(0.2*20) = 10 active, got %d", got)
	}
	if got := r.Phases[2].Active; got != 8 {
		t.Errorf("exodus: 10 - 3 + 1 = 8 active, got %d", got)
	}
	if r.Phases[2].Departed != 3 || r.Phases[2].Arrived != 1 {
		t.Errorf("exodus edits wrong: %+v", r.Phases[2])
	}
	// No admission configured (gpus unset): nothing dropped, nothing
	// failed over.
	for _, p := range r.Phases {
		if p.Summary.Summary.Dropped != 0 || p.Summary.Summary.FailedOver != 0 {
			t.Errorf("phase %q: unexpected admission effects: %+v", p.Phase.Name, p.Summary.Summary)
		}
	}
}

// TestAutoscaleFlashCrowd walks the closed loop's acceptance story:
// the surge violates the SLO while ordered capacity warms up, every
// post-warm-up phase meets it, and the elastic timeline consumes
// measurably fewer GPU-seconds than provisioning the peak statically.
func TestAutoscaleFlashCrowd(t *testing.T) {
	r := mustRun(t, mustBuiltin(t, "edge-autoscale-flashcrowd"), tiny)
	if len(r.Phases) != 6 {
		t.Fatalf("want 6 phases, got %d", len(r.Phases))
	}
	rep := r.Autoscale
	if rep == nil {
		t.Fatal("autoscale report missing")
	}

	// Phase verdicts: calm meets, surge and scramble (the reaction
	// lag) violate, and everything after the provisions land meets.
	wantMet := map[string]bool{
		"calm": true, "surge": false, "scramble": false,
		"peak": true, "drain": true, "settled": true,
	}
	for _, p := range r.Phases {
		if p.SLOMet == nil {
			t.Fatalf("phase %q has no SLO verdict", p.Phase.Name)
		}
		if *p.SLOMet != wantMet[p.Phase.Name] {
			t.Errorf("phase %q SLO met = %v, want %v (p99 %.1f ms)",
				p.Phase.Name, *p.SLOMet, wantMet[p.Phase.Name], p.Summary.Summary.P99MTPMs)
		}
	}
	if rep.SLOEvalPhases != 6 || rep.SLOMetPhases != 4 {
		t.Errorf("attainment = %d/%d, want 4/6", rep.SLOMetPhases, rep.SLOEvalPhases)
	}

	// The loop must actually act: scale-ups for the crowd, scale-downs
	// after it leaves.
	ups, downs := 0, 0
	for _, e := range rep.Events {
		if e.ToGPUs > e.FromGPUs {
			ups++
			if e.ReadySeconds != e.TimeSeconds+20 {
				t.Errorf("scale-up %+v should pay the 20 s provision delay", e)
			}
		} else {
			downs++
			if e.ReadySeconds != e.TimeSeconds {
				t.Errorf("scale-down %+v should be immediate", e)
			}
		}
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("events = %+v, want both provisions and decommissions", rep.Events)
	}

	// The surge runs on pre-crowd capacity (the warm-up delay is the
	// point); the peak runs on the provisioned grid, nobody failed
	// over, nobody queueing.
	peak := r.Phases[3]
	if peak.Summary.Summary.FailedOver != 0 {
		t.Errorf("peak failed %d sessions over after provisioning", peak.Summary.Summary.FailedOver)
	}
	surgeGPUs := r.Phases[1].GPUSeconds / r.Phases[1].Phase.DurationSeconds
	peakGPUs := peak.GPUSeconds / peak.Phase.DurationSeconds
	if surgeGPUs != 4 || peakGPUs <= surgeGPUs {
		t.Errorf("capacity trajectory wrong: surge %v GPUs, peak %v", surgeGPUs, peakGPUs)
	}

	// The headline: elastic < static peak.
	if !(rep.GPUSeconds > 0 && rep.StaticPeakGPUSeconds > 0 && rep.GPUSeconds < rep.StaticPeakGPUSeconds) {
		t.Errorf("GPU-seconds %v not below static peak %v", rep.GPUSeconds, rep.StaticPeakGPUSeconds)
	}
	if rep.SavedFraction < 0.2 {
		t.Errorf("saved fraction %.3f, want a measurable saving", rep.SavedFraction)
	}
	// Nobody is ever dropped in grid mode, autoscaled or not.
	for _, p := range r.Phases {
		if len(p.Fleet.Dropped) != 0 {
			t.Errorf("phase %q dropped %d sessions", p.Phase.Name, len(p.Fleet.Dropped))
		}
	}
}

// TestAutoscaleDeterministicAcrossWorkers extends the byte-identity
// contract to the closed loop: scale decisions and the capacity
// accounting must not move with the worker pool.
func TestAutoscaleDeterministicAcrossWorkers(t *testing.T) {
	sc := mustBuiltin(t, "edge-autoscale-flashcrowd")
	digest := func(workers int) string {
		r := mustRun(t, sc, Options{Workers: workers, FramesOverride: tiny.FramesOverride, WarmupOverride: tiny.WarmupOverride})
		sums, roll := phaseDigest(r)
		blob, err := json.Marshal(struct {
			Sums   []fleet.PhaseSummary
			Roll   fleet.Rollup
			Events [][]fleet.ScaleEvent
			Rep    *fleet.AutoscaleReport
		}{sums, roll, scaleEventsOf(r), r.Autoscale})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	a, b := digest(1), digest(5)
	if a != b {
		t.Fatalf("worker count changed the autoscaled report:\n%s\nvs\n%s", a, b)
	}
}

func scaleEventsOf(r Result) [][]fleet.ScaleEvent {
	evs := make([][]fleet.ScaleEvent, len(r.Phases))
	for i, p := range r.Phases {
		evs[i] = p.ScaleEvents
	}
	return evs
}

// flapScenario stages the autoscaler/migration interaction: one site
// dies, recovers, and dies again while the controller is live.
const flapScenario = `
[scenario]
name      = flap
mix       = mixed
placement = score
autoscale.min-gpus          = 1
autoscale.max-gpus          = 6
autoscale.provision-delay-s = 10
autoscale.cooldown-s        = 10

[slo]
p99-mtp-ms = 135

[cluster east]
gpus = 3
rtt  = 30

[cluster west]
gpus = 3
rtt  = 35

[phase steady]
duration = 60
sessions = 16

[phase outage-1]
duration = 60
cluster-gpus.east = 0

[phase recover-1]
duration = 60

[phase outage-2]
duration = 60
cluster-gpus.east = 0

[phase recover-2]
duration = 60
`

// TestAutoscaleFlapChargesOneHandoffPerMove: under a flapping site
// with the controller live, every affected session pays at most one
// handoff stall per move (handoffs match the move list exactly, phase
// by phase), and no scale-down ever cuts a site below the sessions
// currently draining back onto it.
func TestAutoscaleFlapChargesOneHandoffPerMove(t *testing.T) {
	sc, err := ParseString(flapScenario)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, sc, tiny)

	outageMigrations := 0
	for _, p := range r.Phases {
		g := p.Fleet.Contention.Grid
		if g == nil {
			t.Fatalf("phase %q missing grid report", p.Phase.Name)
		}
		// Each session moves at most once per phase...
		moved := map[string]int{}
		for _, mv := range g.Moves {
			moved[mv.Session]++
			if moved[mv.Session] > 1 {
				t.Errorf("phase %q moved session %q %d times", p.Phase.Name, mv.Session, moved[mv.Session])
			}
		}
		// ...and the handoff stall is charged to exactly the movers.
		for _, sr := range p.Fleet.Sessions {
			charged := sr.Config.RemoteHandoffSeconds > 0
			if charged && moved[sr.Name] == 0 {
				t.Errorf("phase %q charged unmoved session %q a handoff", p.Phase.Name, sr.Name)
			}
			if !charged && moved[sr.Name] > 0 && sr.Config.RemoteClusterName != "" {
				t.Errorf("phase %q moved session %q without a handoff", p.Phase.Name, sr.Name)
			}
		}
		if p.Phase.ClusterGPUs["east"] == 0 && len(p.Phase.ClusterGPUs) > 0 {
			outageMigrations += g.Migrated
			for _, c := range g.Clusters {
				if c.Name == "east" && c.Assigned != 0 {
					t.Errorf("phase %q assigned %d sessions to the dead site", p.Phase.Name, c.Assigned)
				}
			}
		}
		if len(p.Fleet.Dropped) != 0 {
			t.Errorf("phase %q dropped %d sessions during the flap", p.Phase.Name, len(p.Fleet.Dropped))
		}
	}
	if outageMigrations == 0 {
		t.Error("flap produced no outage migrations; the test lost its subject")
	}

	// Scale-downs never cut below the observed population on the site:
	// remaining full-speed capacity must hold every assigned session.
	for i, p := range r.Phases {
		for _, e := range p.ScaleEvents {
			if e.ToGPUs >= e.FromGPUs {
				continue
			}
			for _, c := range r.Phases[i].Fleet.Contention.Grid.Clusters {
				if c.Name == e.Cluster && e.ToGPUs*fleet.DefaultSessionsPerGPU < c.Assigned {
					t.Errorf("phase %q scale-down %+v cut below %d draining sessions",
						p.Phase.Name, e, c.Assigned)
				}
			}
		}
	}
}

// TestStreamingEquivalenceAcrossTimeline is the timeline-level
// sink-equivalence property over migrations and autoscaling: for the
// autoscaled flash-crowd grid, every per-session streamed summary must
// match a materialized full-record re-run of the admitted config bit
// for bit — including sessions carrying WAN paths, migration handoffs
// and autoscaler-resized clusters.
func TestStreamingEquivalenceAcrossTimeline(t *testing.T) {
	r := mustRun(t, mustBuiltin(t, "edge-autoscale-flashcrowd"), tiny)
	checked := 0
	for _, p := range r.Phases {
		for i, sr := range p.Fleet.Sessions {
			// Every config shape is covered by the first few sessions
			// of each phase; re-running all of them would just be slow.
			if i >= 4 {
				break
			}
			var rec framesink.RecordSink
			full := rec.Result(pipeline.NewSession(sr.Config).RunSink(&rec))
			st := sr.Stats
			if st.Frames != len(full.Frames) {
				t.Fatalf("phase %q session %q: %d streamed frames, %d materialized",
					p.Phase.Name, sr.Name, st.Frames, len(full.Frames))
			}
			for name, pair := range map[string][2]float64{
				"avg_mtp": {st.AvgMTPSeconds, full.AvgMTPSeconds()},
				"fps":     {st.FPS, full.FPS()},
				"bytes":   {st.AvgBytesSent, full.AvgBytesSent()},
				"p99":     {st.PercentileMTP(0.99), full.PercentileMTP(0.99)},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Errorf("phase %q session %q: %s streamed %v != materialized %v",
						p.Phase.Name, sr.Name, name, pair[0], pair[1])
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no sessions checked; the test lost its subject")
	}
}

// TestEmptyPhaseWindows: a timeline with zero-session windows in the
// middle must report zeroed (never NaN) summaries for them and keep
// the roll-up anchored on the phases that carried traffic.
func TestEmptyPhaseWindows(t *testing.T) {
	sc, err := ParseString(`
[scenario]
name   = empty-windows
mix    = mixed
frames = 12
warmup = 4

[phase warm]
duration = 60
sessions = 6

[phase drained]
duration = 60
sessions = 0

[phase refill]
duration = 60
sessions = 6
`)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, sc, tiny)
	if len(r.Phases) != 3 {
		t.Fatalf("got %d phases", len(r.Phases))
	}
	drained := r.Phases[1]
	if drained.Active != 0 || len(drained.Fleet.Sessions) != 0 {
		t.Fatalf("drained phase ran %d sessions", drained.Active)
	}
	s := drained.Summary.Summary
	for name, v := range map[string]float64{
		"p50": s.P50MTPMs, "p99": s.P99MTPMs, "mean_fps": s.MeanFPS,
		"agg_mbps": s.AggregateMBps, "target_share": s.TargetShare,
	} {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("drained phase %s = %v, want 0", name, v)
		}
	}
	roll := r.Rollup
	if roll.BaselinePhase != "warm" {
		t.Errorf("baseline %q, want the first traffic phase", roll.BaselinePhase)
	}
	if math.IsNaN(roll.DegradationFactor) || math.IsInf(roll.DegradationFactor, 0) {
		t.Errorf("degradation factor %v, want finite", roll.DegradationFactor)
	}
	if roll.Disrupted {
		t.Error("an empty window is not a disruption")
	}

	// The report must also survive JSON encoding without NaN leakage.
	if _, err := json.Marshal(drained.Summary); err != nil {
		t.Errorf("empty-window summary does not marshal: %v", err)
	}
}
