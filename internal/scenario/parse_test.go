package scenario

import (
	"reflect"
	"strings"
	"testing"

	"qvr/internal/pipeline"
)

const sampleFile = `
# A hand-written scenario exercising every key.
[scenario]
name   = sample
mix    = congested
design = dfr
seed   = 99
gpus   = 3
sessions-per-gpu = 2
cell-capacity    = 5
frames = 40
warmup = 10

[phase warmup]          ; alternate comment style
duration = 30
sessions = 6

[phase trouble]
duration     = 45.5
arrive       = 2
depart       = 1
arrival-rate = 0.1
churn        = 0.25
mix          = flagship
gpus         = 0
frames       = 25
net-scale.4G LTE = 0.3
net-scale.Wi-Fi  = 0.8
`

func TestParseSample(t *testing.T) {
	sc, err := ParseString(sampleFile)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "sample" || sc.Mix != "congested" || sc.Design != pipeline.DFR {
		t.Errorf("scenario header wrong: %+v", sc)
	}
	if sc.Seed != 99 || sc.GPUs != 3 || sc.SessionsPerGPU != 2 || sc.CellCapacity != 5 {
		t.Errorf("scenario numbers wrong: %+v", sc)
	}
	if sc.Frames != 40 || sc.Warmup != 10 {
		t.Errorf("frame budget wrong: %+v", sc)
	}
	if len(sc.Phases) != 2 {
		t.Fatalf("want 2 phases, got %d", len(sc.Phases))
	}
	p0 := sc.Phases[0]
	if p0.Name != "warmup" || p0.DurationSeconds != 30 || p0.Sessions != 6 {
		t.Errorf("phase 0 wrong: %+v", p0)
	}
	// Unset phase keys keep the inherit sentinels.
	if p0.GPUs != -1 || p0.Frames != 0 || p0.Mix != "" {
		t.Errorf("phase 0 should inherit: %+v", p0)
	}
	p1 := sc.Phases[1]
	if p1.DurationSeconds != 45.5 || p1.Arrive != 2 || p1.Depart != 1 || p1.ArrivalRate != 0.1 {
		t.Errorf("phase 1 population edits wrong: %+v", p1)
	}
	if p1.Churn != 0.25 || p1.Mix != "flagship" || p1.GPUs != 0 || p1.Frames != 25 {
		t.Errorf("phase 1 overrides wrong: %+v", p1)
	}
	if p1.Sessions != -1 {
		t.Errorf("phase 1 sessions should carry (-1), got %d", p1.Sessions)
	}
	if p1.NetScale["4G LTE"] != 0.3 || p1.NetScale["Wi-Fi"] != 0.8 {
		t.Errorf("net-scale wrong: %+v", p1.NetScale)
	}
}

func TestParseDefaults(t *testing.T) {
	sc, err := ParseString("[scenario]\nname = d\n[phase only]\nduration = 10\nsessions = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mix != "mixed" || sc.Design != pipeline.QVR || sc.Seed != 1 {
		t.Errorf("defaults wrong: %+v", sc)
	}
	if sc.GPUs != -1 {
		t.Errorf("default gpus should be -1 (no admission), got %d", sc.GPUs)
	}
	if sc.Frames != 60 || sc.Warmup != 20 {
		t.Errorf("default frame budget wrong: %+v", sc)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown scenario key": "[scenario]\nname=x\nbogus = 1\n[phase a]\nduration=1\n",
		"unknown phase key":    "[scenario]\nname=x\n[phase a]\nduration=1\nbogus = 1\n",
		"unknown section":      "[scenario]\nname=x\n[network]\n",
		"missing phase name":   "[scenario]\nname=x\n[phase]\nduration=1\n",
		"malformed header":     "[scenario\nname=x\n",
		"missing equals":       "[scenario]\nname\n",
		"bad int":              "[scenario]\nname=x\ngpus = two\n[phase a]\nduration=1\n",
		"negative int":         "[scenario]\nname=x\ngpus = -2\n[phase a]\nduration=1\n",
		"unknown design":       "[scenario]\nname=x\ndesign = magic\n[phase a]\nduration=1\n",
		"unknown mix":          "[scenario]\nname=x\nmix = nope\n[phase a]\nduration=1\n",
		"unknown condition":    "[scenario]\nname=x\n[phase a]\nduration=1\nnet-scale.Dialup = 0.5\n",
		"negative net-scale":   "[scenario]\nname=x\n[phase a]\nduration=1\nnet-scale.Wi-Fi = -1\n",
		"zero duration":        "[scenario]\nname=x\n[phase a]\nduration=0\n",
		"no phases":            "[scenario]\nname=x\n",
		"no name":              "[scenario]\n[phase a]\nduration=1\n",
		"duplicate phase":      "[scenario]\nname=x\n[phase a]\nduration=1\n[phase a]\nduration=1\n",
		"duplicate scenario":   "[scenario]\nname=x\n[scenario]\n",
		"churn out of range":   "[scenario]\nname=x\n[phase a]\nduration=1\nchurn = 1.5\n",
		"NaN net-scale":        "[scenario]\nname=x\n[phase a]\nduration=1\nnet-scale.Wi-Fi = NaN\n",
		"NaN duration":         "[scenario]\nname=x\n[phase a]\nduration = NaN\n",
		"Inf duration":         "[scenario]\nname=x\n[phase a]\nduration = +Inf\n",
		"NaN churn":            "[scenario]\nname=x\n[phase a]\nduration=1\nchurn = nan\n",
		"comma in phase name":  "[scenario]\nname=x\n[phase a, hour 2]\nduration=1\n",

		"missing cluster name":    "[scenario]\nname=x\n[cluster]\ngpus=1\n[phase a]\nduration=1\n",
		"unknown cluster key":     "[scenario]\nname=x\n[cluster c]\nbogus=1\n[phase a]\nduration=1\n",
		"duplicate cluster":       "[scenario]\nname=x\n[cluster c]\ngpus=1\n[cluster c]\ngpus=2\n[phase a]\nduration=1\n",
		"negative cluster rtt":    "[scenario]\nname=x\n[cluster c]\ngpus=1\nrtt=-5\n[phase a]\nduration=1\n",
		"gpus with clusters":      "[scenario]\nname=x\ngpus=2\n[cluster c]\ngpus=1\n[phase a]\nduration=1\n",
		"phase gpus in grid mode": "[scenario]\nname=x\n[cluster c]\ngpus=1\n[phase a]\nduration=1\ngpus=0\n",
		"unknown placement":       "[scenario]\nname=x\nplacement=round-robin\n[cluster c]\ngpus=1\n[phase a]\nduration=1\n",
		"placement sans clusters": "[scenario]\nname=x\nplacement=score\n[phase a]\nduration=1\n",
		"penalty sans clusters":   "[scenario]\nname=x\nmigration-penalty-ms = 0\n[phase a]\nduration=1\n",
		"spg in grid mode":        "[scenario]\nname=x\nsessions-per-gpu = 2\n[cluster c]\ngpus=1\n[phase a]\nduration=1\n",
		"cluster-gpus sans grid":  "[scenario]\nname=x\n[phase a]\nduration=1\ncluster-gpus.c = 0\n",
		"unknown cluster-gpus":    "[scenario]\nname=x\n[cluster c]\ngpus=1\n[phase a]\nduration=1\ncluster-gpus.d = 0\n",
		"unknown cluster-derate":  "[scenario]\nname=x\n[cluster c]\ngpus=1\n[phase a]\nduration=1\ncluster-derate.d = 0.5\n",
		"derate out of range":     "[scenario]\nname=x\n[cluster c]\ngpus=1\n[phase a]\nduration=1\ncluster-derate.c = 1.5\n",
		"bad migration penalty":   "[scenario]\nname=x\nmigration-penalty-ms = -7\n[cluster c]\ngpus=1\n[phase a]\nduration=1\n",

		"negative duration":      "[scenario]\nname=x\n[phase a]\nduration = -5\n",
		"missing duration":       "[scenario]\nname=x\n[phase a]\nsessions = 4\n",
		"unknown slo key":        "[scenario]\nname=x\n[slo]\nbogus = 1\n[phase a]\nduration=1\n",
		"empty slo section":      "[scenario]\nname=x\n[slo]\n[phase a]\nduration=1\n",
		"targetless slo":         "[scenario]\nname=x\n[slo]\np99-mtp-ms = 0\n[phase a]\nduration=1\n",
		"duplicate slo":          "[scenario]\nname=x\n[slo]\np99-mtp-ms=40\n[slo]\np99-mtp-ms=50\n[phase a]\nduration=1\n",
		"negative slo p99":       "[scenario]\nname=x\n[cluster c]\ngpus=1\n[slo]\np99-mtp-ms = -1\n[phase a]\nduration=1\n",
		"slo share out of range": "[scenario]\nname=x\n[cluster c]\ngpus=1\n[slo]\nmin-90fps-share = 1.5\n[phase a]\nduration=1\n",
		"unknown autoscale key":  "[scenario]\nname=x\nautoscale.bogus = 1\n[cluster c]\ngpus=1\n[slo]\np99-mtp-ms=40\n[phase a]\nduration=1\n",
		"autoscale sans grid":    "[scenario]\nname=x\nautoscale.min-gpus = 1\n[slo]\np99-mtp-ms=40\n[phase a]\nduration=1\n",
		"autoscale sans slo":     "[scenario]\nname=x\nautoscale.min-gpus = 1\n[cluster c]\ngpus=1\n[phase a]\nduration=1\n",
		"autoscale min over max": "[scenario]\nname=x\nautoscale.min-gpus = 5\nautoscale.max-gpus = 2\n[cluster c]\ngpus=1\n[slo]\np99-mtp-ms=40\n[phase a]\nduration=1\n",
		"autoscale bad util":     "[scenario]\nname=x\nautoscale.target-util = 1.5\n[cluster c]\ngpus=1\n[slo]\np99-mtp-ms=40\n[phase a]\nduration=1\n",
		"autoscale NaN delay":    "[scenario]\nname=x\nautoscale.provision-delay-s = NaN\n[cluster c]\ngpus=1\n[slo]\np99-mtp-ms=40\n[phase a]\nduration=1\n",
		"autoscale zero util":    "[scenario]\nname=x\nautoscale.scale-down-util = 0\n[cluster c]\ngpus=1\n[slo]\np99-mtp-ms=40\n[phase a]\nduration=1\n",
	}
	for label, text := range cases {
		if _, err := ParseString(text); err == nil {
			t.Errorf("%s: expected a parse error, got none", label)
		}
	}
}

// TestPositionedParseErrors: the silent-acceptance bugs — zero or
// negative phase durations and duplicate [cluster NAME] sections —
// must fail with the offending line in the message, not a late
// validation error with no position.
func TestPositionedParseErrors(t *testing.T) {
	cases := []struct {
		label, text, wantLine, wantSubstr string
	}{
		{
			"explicit zero duration",
			"[scenario]\nname=x\n[phase a]\nduration = 0\n",
			"line 4", "duration must be positive",
		},
		{
			"negative duration",
			"[scenario]\nname=x\n[phase a]\nduration = -2.5\n",
			"line 4", "duration must be positive",
		},
		{
			"durationless phase, mid-file",
			"[scenario]\nname=x\n[phase a]\nsessions = 4\n[phase b]\nduration = 1\n",
			"line 3", "[phase a]",
		},
		{
			"durationless final phase",
			"[scenario]\nname=x\n[phase a]\nduration = 1\n[phase b]\nsessions = 2\n",
			"line 5", "[phase b]",
		},
		{
			"duplicate cluster section",
			"[scenario]\nname=x\n[cluster c]\ngpus=1\n[cluster c]\ngpus=2\n[phase a]\nduration=1\n",
			"line 5", "duplicate [cluster c] section (first declared on line 3)",
		},
		{
			"non-boolean retired lean key",
			"[scenario]\nname=x\n[fidelity]\nexact-fraction = 0.1\nlean = maybe\n[phase a]\nduration=1\n",
			"line 5", `lean: expected true or false, got "maybe"`,
		},
	}
	for _, c := range cases {
		_, err := ParseString(c.text)
		if err == nil {
			t.Errorf("%s: expected a parse error, got none", c.label)
			continue
		}
		for _, want := range []string{c.wantLine, c.wantSubstr} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q missing %q", c.label, err, want)
			}
		}
	}
}

// TestParseSLOAndAutoscale: the [slo] section and autoscale.* keys
// land in the scenario, with the controller left nil when the keys
// are absent.
func TestParseSLOAndAutoscale(t *testing.T) {
	sc, err := ParseString(`
[scenario]
name      = elastic
autoscale.min-gpus          = 1
autoscale.max-gpus          = 8
autoscale.step-gpus         = 4
autoscale.provision-delay-s = 20
autoscale.cooldown-s        = 25
autoscale.target-util       = 0.7
autoscale.scale-down-util   = 0.4

[slo]
p99-mtp-ms      = 40
min-90fps-share = 0.75

[cluster c]
gpus = 2

[phase a]
duration = 60
sessions = 4
`)
	if err != nil {
		t.Fatal(err)
	}
	if sc.SLO == nil || sc.SLO.P99MTPMs != 40 || sc.SLO.Min90FPSShare != 0.75 {
		t.Errorf("SLO = %+v, want p99 40, share 0.75", sc.SLO)
	}
	a := sc.Autoscale
	if a == nil {
		t.Fatal("autoscale.* keys did not enable the controller config")
	}
	if a.MinGPUs != 1 || a.MaxGPUs != 8 || a.StepGPUs != 4 ||
		a.ProvisionDelaySeconds != 20 || a.CooldownSeconds != 25 ||
		a.TargetUtil != 0.7 || a.ScaleDownUtil != 0.4 {
		t.Errorf("autoscale config = %+v", a)
	}

	// [slo] without autoscale.* is attainment-only reporting: legal,
	// controller stays nil.
	sc, err = ParseString("[scenario]\nname=x\n[slo]\np99-mtp-ms=40\n[phase a]\nduration=1\n")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Autoscale != nil {
		t.Error("SLO alone should not enable autoscaling")
	}
	if sc.SLO == nil || !sc.SLO.Enabled() {
		t.Error("SLO section lost")
	}
}

const gridFile = `
[scenario]
name      = grid-sample
placement = least-loaded
migration-penalty-ms = 80

[cluster near]
gpus      = 2
rtt       = 12
rtt.us    = 6
bandwidth = 400

[cluster far]
gpus             = 4
sessions-per-gpu = 6
rtt              = 95

[phase calm]
duration = 60
sessions = 8

[phase near-down]
duration = 30
cluster-gpus.near   = 0
cluster-derate.far  = 0.5
`

func TestParseGridScenario(t *testing.T) {
	sc, err := ParseString(gridFile)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Placement != "least-loaded" || sc.MigrationPenaltyMs != 80 {
		t.Errorf("grid header wrong: %+v", sc)
	}
	if len(sc.Topology.Clusters) != 2 {
		t.Fatalf("want 2 clusters, got %d", len(sc.Topology.Clusters))
	}
	near := sc.Topology.Clusters[0]
	if near.Name != "near" || near.GPUs != 2 {
		t.Errorf("cluster near wrong: %+v", near)
	}
	// File units (ms, Mbit/s) convert to SI on parse.
	if near.RTTSeconds != 0.012 || near.RegionRTT["us"] != 0.006 || near.BandwidthBps != 400e6 {
		t.Errorf("cluster near units wrong: %+v", near)
	}
	far := sc.Topology.Clusters[1]
	if far.SessionsPerGPU != 6 || far.RTTSeconds != 0.095 || far.BandwidthBps != 0 {
		t.Errorf("cluster far wrong: %+v", far)
	}
	down := sc.Phases[1]
	if down.ClusterGPUs["near"] != 0 || down.ClusterDerate["far"] != 0.5 {
		t.Errorf("phase cluster overrides wrong: %+v", down)
	}
}

func TestBuiltinsParseAndValidate(t *testing.T) {
	names := BuiltinNames()
	want := []string{"capacity-probe", "churn", "cluster-outage-failover", "diurnal",
		"edge-autoscale-flashcrowd", "edge-imbalance", "edge-regional-outage",
		"flash-crowd", "giga-steady", "mega-steady", "net-brownout", "steady"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("built-ins = %v, want %v", names, want)
	}
	for _, name := range names {
		sc, err := Builtin(name)
		if err != nil {
			t.Errorf("built-in %q: %v", name, err)
			continue
		}
		if sc.Name != name {
			t.Errorf("built-in %q declares name %q", name, sc.Name)
		}
		// Timeline scenarios need a story arc; capacity-probe is the
		// deliberate exception — a single steady phase, because it
		// exists to be probed at externally chosen session counts.
		minPhases := 3
		if name == "capacity-probe" {
			minPhases = 1
		}
		if len(sc.Phases) < minPhases {
			t.Errorf("built-in %q has only %d phases", name, len(sc.Phases))
		}
		// giga-steady is the million-session proof of the fast path.
		if name == "giga-steady" && sc.Fidelity == nil {
			t.Error("giga-steady declares no [fidelity] section")
		}
	}
	if _, err := Builtin("no-such"); err == nil {
		t.Error("unknown built-in should error")
	}
}

// TestParseRetiredLeanKey: [fidelity] lean no longer selects anything,
// since no run keeps per-session results, but scenario files that set
// it still parse, to the same scenario as a file without the key.
func TestParseRetiredLeanKey(t *testing.T) {
	const file = "[scenario]\nname=x\n[fidelity]\nexact-fraction = 0.1\n%s[phase a]\nduration=1\n"
	want, err := ParseString(strings.Replace(file, "%s", "", 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, value := range []string{"true", "false"} {
		got, err := ParseString(strings.Replace(file, "%s", "lean = "+value+"\n", 1))
		if err != nil {
			t.Errorf("lean = %s: %v", value, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lean = %s changed the scenario:\n%+v\nvs\n%+v", value, got, want)
		}
	}
}
