package scenario

import (
	"fmt"
	"sort"
)

// The built-in scenario library. Each entry is written in the scenario
// file format itself — the library doubles as format documentation,
// and every built-in runs through the same parser a user file does.
var builtins = map[string]string{
	// steady: the control. Constant population, constant conditions;
	// every phase should look like every other phase.
	"steady": `
[scenario]
name = steady
mix  = mixed
gpus = 2

[phase early]
duration = 120
sessions = 12

[phase middle]
duration = 120
sessions = 12

[phase late]
duration = 120
sessions = 12
`,

	// diurnal: a day compressed into five phases. Load climbs from the
	// overnight trough to a midday peak that oversubscribes the
	// 2-GPU cluster and the cells, then falls off again.
	"diurnal": `
[scenario]
name = diurnal
mix  = mixed
gpus = 2
cell-capacity = 6

[phase night]
duration = 240
sessions = 6

[phase morning]
duration = 120
sessions = 12

[phase midday-peak]
duration = 240
sessions = 24

[phase evening]
duration = 120
sessions = 16

[phase late-night]
duration = 240
sessions = 6
`,

	// flash-crowd: a launch-day spike. The population jumps 6x in one
	// phase; the admission layer queues what it can and drops the
	// rest, then the crowd drains and the dropped users get served.
	"flash-crowd": `
[scenario]
name = flash-crowd
mix  = mixed
gpus = 2
cell-capacity = 8

[phase baseline]
duration = 120
sessions = 8

[phase spike]
duration = 60
sessions = 48

[phase drain]
duration = 120
sessions = 12

[phase settled]
duration = 120
sessions = 8
`,

	// net-brownout: the cluster is fine but the access networks are
	// not — Wi-Fi and LTE cells drop to 15% of nominal bandwidth for
	// one phase (backhaul failure, interference), then recover.
	"net-brownout": `
[scenario]
name = net-brownout
mix  = mixed
gpus = 2

[phase clear]
duration = 120
sessions = 10

[phase brownout]
duration = 60
sessions = 10
net-scale.Wi-Fi  = 0.15
net-scale.4G LTE = 0.15

[phase recovered]
duration = 120
sessions = 10
`,

	// cluster-outage-failover: the remote render cluster goes down
	// entirely for one phase. Nobody is dropped — every session fails
	// over to local-only rendering and pays for it in latency — then
	// the cluster comes back and the fleet recovers. The congested mix
	// (budget-heavy devices) makes the failover cost visible: weak
	// GPUs depend on the remote periphery the most.
	"cluster-outage-failover": `
[scenario]
name = cluster-outage-failover
mix  = congested
gpus = 2

[phase steady]
duration = 120
sessions = 12

[phase outage]
duration = 60
sessions = 12
gpus = 0

[phase failback]
duration = 120
sessions = 12
gpus = 2
`,

	// edge-regional-outage: the geo-distributed flagship story. Three
	// edge clusters serve three user regions; the EU site dies for one
	// phase. Its sessions migrate to the surviving sites — paying the
	// handoff once and the longer WAN path for the duration — instead
	// of failing over to local-only, and nobody is dropped. When the
	// site returns, sticky placement keeps the migrants put rather
	// than thrashing them straight back.
	"edge-regional-outage": `
[scenario]
name      = edge-regional-outage
mix       = mixed
placement = score

[cluster us-west]
gpus   = 3
rtt    = 40
rtt.us = 8
rtt.eu = 70
rtt.ap = 90

[cluster eu-central]
gpus   = 3
rtt    = 40
rtt.us = 70
rtt.eu = 10
rtt.ap = 110

[cluster ap-south]
gpus   = 2
rtt    = 60
rtt.us = 90
rtt.eu = 110
rtt.ap = 12

[phase steady]
duration = 120
sessions = 18

[phase outage]
duration = 60
cluster-gpus.eu-central = 0

[phase failback]
duration = 120
`,

	// edge-imbalance: geography versus capacity. The congested mix
	// lives mostly in the AP region, whose site is the smallest;
	// nearest-RTT packs it to its queue ceiling and spills the rest
	// across an ocean, and a mid-timeline derate of the big US site
	// squeezes the overflow further. The same file with
	// placement = score is the fix — which is the point of pluggable
	// policies.
	"edge-imbalance": `
[scenario]
name      = edge-imbalance
mix       = congested
placement = nearest-rtt

[cluster us-west]
gpus   = 4
rtt    = 40
rtt.us = 8
rtt.ap = 90

[cluster eu-central]
gpus   = 2
rtt    = 40
rtt.us = 70
rtt.ap = 110

[cluster ap-south]
gpus   = 1
rtt    = 60
rtt.us = 90
rtt.ap = 12

[phase baseline]
duration = 120
sessions = 10

[phase regional-rush]
duration = 60
sessions = 24

[phase us-derate]
duration = 60
cluster-derate.us-west = 0.5

[phase drain]
duration = 120
sessions = 10
`,

	// edge-autoscale-flashcrowd: the closed loop. A launch-day crowd
	// hits a two-site grid provisioned for the quiet morning; the
	// autoscaler watches the windowed P99-MTP/90-FPS SLO, rides out
	// the surge while ordered GPUs warm up (the scramble phase is the
	// reaction lag made visible), then serves the peak inside the SLO
	// and decommissions as the crowd drains — consuming far fewer
	// GPU-seconds than provisioning the peak statically all day.
	"edge-autoscale-flashcrowd": `
[scenario]
name      = edge-autoscale-flashcrowd
mix       = mixed
placement = score
autoscale.min-gpus          = 1
autoscale.max-gpus          = 8
autoscale.provision-delay-s = 20
autoscale.cooldown-s        = 25

[slo]
p99-mtp-ms = 135   # the crowd's queueing pushes P99 past this; provisioned capacity brings it back

[cluster us-west]
gpus   = 2
rtt    = 40
rtt.us = 8
rtt.eu = 70
rtt.ap = 90

[cluster eu-central]
gpus   = 2
rtt    = 40
rtt.us = 70
rtt.eu = 10
rtt.ap = 60

[phase calm]
duration = 120
sessions = 8

[phase surge]
duration = 40
sessions = 40

[phase scramble]     # ordered capacity still warming up
duration = 20

[phase peak]         # the provisions have landed
duration = 120

[phase drain]
duration = 60
sessions = 12

[phase settled]
duration = 180
sessions = 8
`,

	// mega-steady: the scale proof for the streaming metrics core. A
	// ramp seeds the grid, then a 20,000-session steady state holds
	// for two phases. There is nothing adversarial here on purpose:
	// the scenario exists so `make scale-smoke` (and anyone sizing a
	// deployment) can watch a 20k-session fleet run in constant
	// per-frame memory — per-session state is a compact summary plus
	// one float64 per measured frame, never a FrameRecord slice.
	// Short frame counts keep the default run affordable; the smoke
	// trims them further.
	"mega-steady": `
[scenario]
name   = mega-steady
mix    = mixed
frames = 20
warmup = 8

[phase ramp]
duration = 60
sessions = 2000

[phase peak]
duration = 120
sessions = 20000

[phase sustain]
duration = 120
sessions = 20000
`,

	// giga-steady: the mixed-fidelity scale proof. A million active
	// sessions — two orders past mega-steady — made affordable by the
	// [fidelity] section: each phase mints its specs transiently inside
	// the fleet workers and keeps no per-session results, the
	// calibrated analytic surrogate serves the bulk, and a 0.2%
	// stratified exact-DES sample refutes the surrogate per metric
	// every phase (the run fails loudly if any error bound is
	// exceeded). Tiny frame counts keep even a million sessions inside
	// a CI smoke budget.
	"giga-steady": `
[scenario]
name   = giga-steady
mix    = mixed
frames = 4
warmup = 2

[fidelity]
exact-fraction = 0.002

[phase ramp]
duration = 60
sessions = 200000

[phase peak]
duration = 120
sessions = 1000000

[phase sustain]
duration = 120
sessions = 1000000
`,

	// capacity-probe: the HPL.dat of this repo. A plain two-site grid
	// with a declared SLO and a single steady phase — deliberately
	// boring, because it exists to be *probed*: `qvr-capacity` binary-
	// searches the session count this topology sustains inside the
	// [slo] targets and sweeps the knee curve around it. It runs fine
	// under qvr-edge too (one phase, attainment-only SLO report).
	"capacity-probe": `
[scenario]
name      = capacity-probe
mix       = mixed
placement = score

# P99 MTP only: the mixed fleet's sustainable per-session FPS sits
# below the 90 FPS display rate by design (mobile GPUs at 300-500 MHz),
# so a min-90fps-share floor would be unmeetable at any session count.
[slo]
p99-mtp-ms = 135

[cluster us-west]
gpus   = 2
rtt    = 40
rtt.us = 8
rtt.eu = 70
rtt.ap = 90

[cluster eu-central]
gpus   = 2
rtt    = 40
rtt.us = 70
rtt.eu = 10
rtt.ap = 60

[phase steady]
duration = 120
sessions = 8
`,

	// churn: the population size holds but its members do not — half
	// of the users are replaced every phase, so per-session state
	// (controller warm-up, channel estimates) keeps restarting.
	"churn": `
[scenario]
name = churn
mix  = mixed
gpus = 2

[phase cohort-1]
duration = 120
sessions = 16

[phase cohort-2]
duration = 120
churn = 0.5

[phase cohort-3]
duration = 120
churn = 0.5

[phase cohort-4]
duration = 120
churn = 0.5
`,
}

// Builtin parses the named built-in scenario.
func Builtin(name string) (Scenario, error) {
	text, ok := builtins[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown built-in %q (have: %v)", name, BuiltinNames())
	}
	sc, err := ParseString(text)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: built-in %q: %w", name, err)
	}
	return sc, nil
}

// BuiltinNames lists the built-in scenarios, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FidelityBuiltinNames lists the built-in scenarios that declare a
// [fidelity] section — the set capable of the calibrated analytic
// fast path, which qvr-scenario's -list output annotates.
func FidelityBuiltinNames() []string {
	var names []string
	for _, name := range BuiltinNames() {
		if sc, err := Builtin(name); err == nil && sc.Fidelity != nil {
			names = append(names, sc.Name)
		}
	}
	return names
}

// GridBuiltinNames lists the built-in scenarios that declare an edge
// grid topology ([cluster] sections), sorted — the set qvr-edge runs.
// Hoisted here (from qvr-edge's private filter) so every CLI's -list
// output comes from the one registry and cannot drift from it.
func GridBuiltinNames() []string {
	var names []string
	for _, name := range BuiltinNames() {
		if sc, err := Builtin(name); err == nil && len(sc.Topology.Clusters) > 0 {
			names = append(names, sc.Name)
		}
	}
	return names
}
