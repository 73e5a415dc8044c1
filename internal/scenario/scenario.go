// Package scenario turns the static fleet engine into a day in
// production: a declarative, time-phased workload description — a
// sectioned key=value file in the tradition of simulator configs
// (SESC's .conf sections, HPL's HPL.dat) — parsed into a timeline of
// phases and executed phase by phase on internal/fleet.
//
// Each phase is a window on the scenario's production clock. It can
// change the active session population (absolute targets, arrival
// rates, explicit arrivals/departures, churn), derate access-network
// cells (a brownout), and resize or kill the shared remote render
// cluster (a zero-GPU phase is a total outage; the admission layer
// fails the fleet over to local-only rendering). Sessions are carried
// across phase boundaries: a user who arrived in the morning phase is
// still there — same device, same network, same identity — during the
// evening flash crowd, re-simulated each phase with a seed derived
// deterministically from (base seed, session index, phase index), so
// the whole timeline is reproducible bit-for-bit for any worker
// count.
//
// Twelve built-in scenarios ship with the package: steady, diurnal,
// flash-crowd, net-brownout, cluster-outage-failover, churn, the
// 20,000-session mega-steady scale proof, the 1,000,000-session
// mixed-fidelity giga-steady proof, and the grid timelines
// edge-regional-outage, edge-imbalance, edge-autoscale-flashcrowd and
// capacity-probe. They are written in the same file format the parser
// accepts, so they double as format documentation and parser test
// vectors (BuiltinNames enumerates them; a registry test keeps this
// comment and the README tables in sync).
//
// A grid scenario may additionally declare an [slo] section (quality
// targets reported per phase) and autoscale.* keys, which close the
// loop: internal/autoscale watches each phase window's metrics against
// the SLO and resizes the grid's clusters for the next window.
package scenario

import (
	"fmt"
	"math"
	"strings"

	"qvr/internal/autoscale"
	"qvr/internal/edge"
	"qvr/internal/fleet"
	"qvr/internal/netsim"
	"qvr/internal/pipeline"
)

// Scenario is a parsed, validated timeline description.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Mix names the fleet population new sessions are drawn from
	// (fleet.MixByName); phases may override it for their arrivals.
	Mix string
	// Design is the rendering system every session runs.
	Design pipeline.Design
	// Seed is the base seed every derived seed flows from.
	Seed int64
	// GPUs sizes the shared remote cluster; -1 disables the admission
	// layer entirely (every session keeps a private cluster), 0 means
	// the cluster is down from the start. Phases may override. Mutually
	// exclusive with Topology: a scenario is either single-cluster or
	// grid, not both.
	GPUs int
	// Topology declares the geo-distributed edge render grid, one
	// [cluster NAME] section per site. A non-empty topology switches
	// the timeline to grid mode: placement replaces the single-cluster
	// admission layer, and phases resize/derate named sites instead of
	// flipping the shared GPU count.
	Topology edge.Topology
	// Placement names the grid's placement policy
	// (edge.PolicyByName); "" means the default score policy.
	Placement string
	// SLO declares the timeline's quality-of-experience targets (the
	// [slo] section); nil means no targets, and phase reports carry no
	// attainment verdicts.
	SLO *fleet.SLO
	// Autoscale enables the closed-loop capacity controller
	// (autoscale.* keys). Grid mode only, and it needs an SLO to
	// provision against; nil means capacity stays as declared. The
	// controller's SLO field is ignored — the scenario's own SLO wins.
	Autoscale *autoscale.Config
	// MigrationPenaltyMs is the one-time handoff stall charged to each
	// migrated session, in milliseconds; -1 means the edge default.
	MigrationPenaltyMs float64
	// SessionsPerGPU is the admission layer's per-GPU session
	// capacity; 0 uses the fleet default.
	SessionsPerGPU int
	// CellCapacity is sessions per network cell before bandwidth
	// sharing; 0 means uncontended cells.
	CellCapacity int
	// Frames/Warmup are the per-session measured and warmup frame
	// counts simulated in each phase window.
	Frames, Warmup int
	// Fidelity declares the mixed-fidelity fast path (the [fidelity]
	// section): sessions run through the calibrated analytic surrogate
	// except for a stratified exact-DES sample cross-checked per
	// metric. Nil means every session runs the exact simulation.
	Fidelity *Fidelity
	// Phases is the timeline, in order.
	Phases []Phase
}

// Fidelity is the [fidelity] section: the mixed-fidelity contract a
// scenario declares for itself.
type Fidelity struct {
	// ExactFraction is the per-class share of sessions routed through
	// the exact DES as the refutation sample (exact-fraction key).
	// Must be in (0, 1]; every class contributes at least one session.
	ExactFraction float64
	// Calibration is the exact runs per calibration class that build
	// the surrogate's exemplar table (calibration key); 0 = default.
	Calibration int
	// Tolerance is the per-metric error budget (tolerance.* keys);
	// zero fields take the fleet defaults.
	Tolerance fleet.Tolerance
}

// Phase is one window of the timeline.
type Phase struct {
	// Name labels the phase in reports.
	Name string
	// DurationSeconds is the phase's length on the production clock.
	// It scales rate-based arrivals and is the unit recovery time is
	// measured in; the simulated frames are a sampled window within
	// the phase.
	DurationSeconds float64
	// Sessions is the target active session count at the start of the
	// phase (-1 = carry the previous phase's population). When the
	// carried population is over target, the oldest sessions log off;
	// under target, fresh sessions arrive.
	Sessions int
	// Arrive adds this many fresh sessions; ArrivalRate adds
	// round(rate * duration) more. Both apply before the Sessions
	// target is enforced.
	Arrive      int
	ArrivalRate float64
	// Depart logs off this many of the oldest carried sessions at
	// phase start.
	Depart int
	// Churn replaces this fraction (0..1) of the carried population
	// with fresh arrivals: the departing users are the oldest, the
	// replacements are brand-new sessions with new seeds.
	Churn float64
	// Mix overrides the scenario mix for this phase's arrivals ("" =
	// scenario default).
	Mix string
	// GPUs overrides the shared cluster size for this phase (-1 =
	// scenario default). 0 models a cluster outage: the admission
	// layer fails every session over to local-only rendering.
	GPUs int
	// Frames overrides the per-session measured frames for this phase
	// (0 = scenario default).
	Frames int
	// NetScale derates named network conditions for the duration of
	// the phase: condition name -> bandwidth share factor. Factors are
	// clamped by netsim.Condition.Scaled, so 0 is a blackout-grade
	// derate, not a divide-by-zero.
	NetScale map[string]float64
	// ClusterGPUs resizes named edge clusters for this phase (grid
	// mode): cluster name -> chiplet count, 0 = a site outage.
	// Omitted sites keep their declared topology size.
	ClusterGPUs map[string]int
	// ClusterDerate scales named edge clusters' capacity and per-GPU
	// throughput for this phase (grid mode): cluster name -> factor in
	// [0, 1]. 0 is an outage-grade derate.
	ClusterDerate map[string]float64
}

// Validate checks the scenario against the fleet/netsim catalogs so a
// hand-built or hand-edited scenario fails fast with a message naming
// the offending section, not deep inside a phase run.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("scenario %q: no phases", sc.Name)
	}
	if sc.Frames <= 0 {
		return fmt.Errorf("scenario %q: frames must be positive, got %d", sc.Name, sc.Frames)
	}
	if sc.Warmup < 0 {
		return fmt.Errorf("scenario %q: warmup must not be negative, got %d", sc.Name, sc.Warmup)
	}
	if _, ok := fleet.MixByName(sc.Mix); !ok {
		return fmt.Errorf("scenario %q: unknown mix %q", sc.Name, sc.Mix)
	}
	gridMode := len(sc.Topology.Clusters) > 0
	if gridMode {
		if err := sc.Topology.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		if sc.GPUs >= 0 {
			return fmt.Errorf("scenario %q: gpus and [cluster] sections are mutually exclusive (the grid owns all remote capacity)", sc.Name)
		}
		if sc.SessionsPerGPU > 0 {
			return fmt.Errorf("scenario %q: sessions-per-gpu is the single-cluster knob; set it per [cluster] section in grid mode", sc.Name)
		}
		if sc.Placement != "" {
			if _, ok := edge.PolicyByName(sc.Placement); !ok {
				return fmt.Errorf("scenario %q: unknown placement policy %q (have: %v)",
					sc.Name, sc.Placement, edge.PolicyNames())
			}
		}
		if ok := sc.MigrationPenaltyMs == -1 ||
			(sc.MigrationPenaltyMs >= 0 && !math.IsInf(sc.MigrationPenaltyMs, 0)); !ok {
			return fmt.Errorf("scenario %q: migration-penalty-ms %v must be non-negative and finite (or -1 for the default)",
				sc.Name, sc.MigrationPenaltyMs)
		}
	} else if sc.Placement != "" || sc.MigrationPenaltyMs > 0 {
		// A hand-built Scenario's zero-valued MigrationPenaltyMs must
		// pass (0 is harmless outside grid mode); the parser separately
		// rejects an explicit `migration-penalty-ms = 0` key in a
		// cluster-less file, where it can tell set from unset.
		return fmt.Errorf("scenario %q: placement/migration-penalty-ms need [cluster] sections", sc.Name)
	}
	if sc.SLO != nil {
		s := *sc.SLO
		if !s.Enabled() {
			return fmt.Errorf("scenario %q: [slo] declares no target; set p99-mtp-ms and/or min-90fps-share (every phase would vacuously pass)", sc.Name)
		}
		if !(s.P99MTPMs >= 0 && !math.IsInf(s.P99MTPMs, 0)) {
			return fmt.Errorf("scenario %q: slo p99-mtp-ms %v must be non-negative and finite", sc.Name, s.P99MTPMs)
		}
		if !(s.Min90FPSShare >= 0 && s.Min90FPSShare <= 1) {
			return fmt.Errorf("scenario %q: slo min-90fps-share %v out of [0,1]", sc.Name, s.Min90FPSShare)
		}
	}
	if sc.Autoscale != nil {
		if !gridMode {
			return fmt.Errorf("scenario %q: autoscale.* needs [cluster] sections (the controller scales the edge grid)", sc.Name)
		}
		if sc.SLO == nil || !sc.SLO.Enabled() {
			return fmt.Errorf("scenario %q: autoscale.* needs an [slo] section with at least one target to provision against", sc.Name)
		}
		if err := sc.Autoscale.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	if f := sc.Fidelity; f != nil {
		if !(f.ExactFraction > 0 && f.ExactFraction <= 1) {
			return fmt.Errorf("scenario %q: [fidelity] exact-fraction %v out of (0,1]", sc.Name, f.ExactFraction)
		}
		if f.Calibration < 0 {
			return fmt.Errorf("scenario %q: [fidelity] calibration must not be negative, got %d", sc.Name, f.Calibration)
		}
		for _, t := range []struct {
			key string
			v   float64
		}{{"tolerance.mtp", f.Tolerance.MTP}, {"tolerance.fps", f.Tolerance.FPS},
			{"tolerance.bytes", f.Tolerance.Bytes}, {"tolerance.share", f.Tolerance.Share}} {
			if !(t.v >= 0 && !math.IsInf(t.v, 0)) {
				return fmt.Errorf("scenario %q: [fidelity] %s %v must be non-negative and finite", sc.Name, t.key, t.v)
			}
		}
	}
	seen := map[string]bool{}
	for i, ph := range sc.Phases {
		where := fmt.Sprintf("scenario %q phase %d (%q)", sc.Name, i, ph.Name)
		if ph.Name == "" {
			return fmt.Errorf("scenario %q phase %d: missing name", sc.Name, i)
		}
		if seen[ph.Name] {
			return fmt.Errorf("%s: duplicate phase name", where)
		}
		seen[ph.Name] = true
		// Report fields are emitted unescaped (CSV rows, table
		// columns); keep phase names free of delimiters.
		if strings.ContainsAny(ph.Name, ",\"\n") {
			return fmt.Errorf("%s: name must not contain commas, quotes or newlines", where)
		}
		// Numeric checks are written fail-closed: NaN compares false
		// against everything, so we test for the valid range instead
		// of the invalid one (the parser rejects non-finite values,
		// but hand-built Scenarios reach here too).
		if !(ph.DurationSeconds > 0 && !math.IsInf(ph.DurationSeconds, 0)) {
			return fmt.Errorf("%s: duration must be positive and finite, got %v", where, ph.DurationSeconds)
		}
		if ph.Sessions < -1 {
			return fmt.Errorf("%s: sessions must be >= 0 (or unset), got %d", where, ph.Sessions)
		}
		if ph.Arrive < 0 || ph.Depart < 0 || !(ph.ArrivalRate >= 0 && !math.IsInf(ph.ArrivalRate, 0)) {
			return fmt.Errorf("%s: arrivals/departures must be non-negative and finite", where)
		}
		if !(ph.Churn >= 0 && ph.Churn <= 1) {
			return fmt.Errorf("%s: churn %v out of [0,1]", where, ph.Churn)
		}
		if ph.Mix != "" {
			if _, ok := fleet.MixByName(ph.Mix); !ok {
				return fmt.Errorf("%s: unknown mix %q", where, ph.Mix)
			}
		}
		for name, f := range ph.NetScale {
			if _, ok := netsim.ConditionByName(name); !ok {
				return fmt.Errorf("%s: net-scale names unknown condition %q", where, name)
			}
			if !(f >= 0 && !math.IsInf(f, 0)) {
				return fmt.Errorf("%s: net-scale.%s = %v must be non-negative and finite", where, name, f)
			}
		}
		if !gridMode && (len(ph.ClusterGPUs) > 0 || len(ph.ClusterDerate) > 0) {
			return fmt.Errorf("%s: cluster-gpus/cluster-derate need [cluster] sections", where)
		}
		if gridMode && ph.GPUs >= 0 {
			return fmt.Errorf("%s: gpus is the single-cluster knob; use cluster-gpus.<name> in grid mode", where)
		}
		for name, n := range ph.ClusterGPUs {
			if _, ok := sc.Topology.ClusterByName(name); !ok {
				return fmt.Errorf("%s: cluster-gpus names unknown cluster %q", where, name)
			}
			if n < 0 {
				return fmt.Errorf("%s: cluster-gpus.%s must not be negative, got %d", where, name, n)
			}
		}
		for name, f := range ph.ClusterDerate {
			if _, ok := sc.Topology.ClusterByName(name); !ok {
				return fmt.Errorf("%s: cluster-derate names unknown cluster %q", where, name)
			}
			if !(f >= 0 && f <= 1) {
				return fmt.Errorf("%s: cluster-derate.%s = %v out of [0,1]", where, name, f)
			}
		}
	}
	return nil
}
