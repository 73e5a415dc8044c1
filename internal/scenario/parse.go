package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"qvr/internal/autoscale"
	"qvr/internal/edge"
	"qvr/internal/fleet"
	"qvr/internal/pipeline"
)

// The scenario file format is sectioned key=value text:
//
//	# comments run to end of line
//	[scenario]
//	name   = flash-crowd
//	mix    = mixed          # fleet.MixByName population
//	design = qvr            # local remote static ffr dfr qvr-sw qvr
//	seed   = 7
//	gpus   = 2              # shared cluster; omit for uncontended
//	cell-capacity = 6
//	frames = 60             # measured frames per session per phase
//	warmup = 20
//
//	[phase baseline]
//	duration = 120          # seconds of production time
//	sessions = 8            # target active sessions
//
//	[phase crowd]
//	duration     = 60
//	arrival-rate = 0.5      # extra sessions per second
//	gpus         = 0        # remote outage: fail over to local
//	churn        = 0.25     # replace a quarter of carried users
//	net-scale.4G LTE = 0.3  # brownout: derate one cell's bandwidth
//
// A geo-distributed scenario replaces the single shared cluster with
// [cluster NAME] sections — an edge render grid. Declaring any
// cluster switches the timeline to grid mode: the placement scheduler
// owns every remote binding, and phases resize or derate named sites
// instead of flipping the shared `gpus` knob:
//
//	[scenario]
//	name      = continental
//	placement = score       # or nearest-rtt, least-loaded
//	migration-penalty-ms = 50
//
//	[cluster us-west]
//	gpus      = 3           # site size; 0 = starts down
//	rtt       = 40          # base WAN round trip, milliseconds
//	rtt.us    = 8           # per-region overrides
//	rtt.eu    = 70
//	bandwidth = 400         # per-session WAN slice, Mbit/s (0 = uncapped)
//
//	[phase regional-outage]
//	duration = 60
//	cluster-gpus.us-west   = 0    # site outage: sessions migrate
//	cluster-derate.ap-south = 0.5 # half capacity/throughput
//
// A grid scenario can close the capacity loop: an [slo] section
// declares the quality targets and autoscale.* keys (in [scenario])
// switch on the controller that provisions and decommissions GPUs
// against them:
//
//	[scenario]
//	autoscale.min-gpus          = 1    # per-cluster bounds
//	autoscale.max-gpus          = 8
//	autoscale.step-gpus         = 4    # max GPUs per decision (0 = jump)
//	autoscale.provision-delay-s = 20   # warm-up before new GPUs serve
//	autoscale.cooldown-s        = 25   # min seconds between decisions
//	autoscale.target-util       = 0.8  # sizing headroom
//	autoscale.scale-down-util   = 0.5  # idle threshold to shed
//
//	[slo]
//	p99-mtp-ms      = 40   # windowed P99 motion-to-photon ceiling
//	min-90fps-share = 0.75 # floor on sessions holding 90 FPS
//
// A [fidelity] section switches on the mixed-fidelity fast path:
// sessions run through the calibrated analytic surrogate except for a
// stratified exact-DES sample that refutes the surrogate per metric:
//
//	[fidelity]
//	exact-fraction  = 0.05 # per-class exact-DES share, in (0,1]
//	calibration     = 3    # exact runs per class for the exemplar table
//	tolerance.mtp   = 0.15 # per-metric error budgets (fps/bytes/share too)
//
// The retired lean key still parses, as true or false, and changes
// nothing: no scenario run keeps per-session results.
//
// Phases execute in file order. Unknown keys are errors: a typo in a
// scenario file should fail loudly, not silently simulate something
// else. Phase durations must be positive and cluster names unique —
// both are rejected with the offending line.

// defaults returns the zero scenario the file's keys overlay.
func defaults() Scenario {
	return Scenario{
		Mix:                "mixed",
		Design:             pipeline.QVR,
		Seed:               1,
		GPUs:               -1,
		MigrationPenaltyMs: -1,
		Frames:             60,
		Warmup:             20,
	}
}

// newPhase returns a phase carrying the "inherit" sentinels.
func newPhase(name string) Phase {
	return Phase{Name: name, Sessions: -1, GPUs: -1}
}

// ParseFile parses the scenario file at path.
func ParseFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	sc, err := Parse(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario %s: %w", path, err)
	}
	return sc, nil
}

// ParseString parses scenario text (the built-ins use this).
func ParseString(text string) (Scenario, error) {
	return Parse(strings.NewReader(text))
}

// Parse reads a sectioned key=value scenario description and returns
// the validated Scenario.
func Parse(r io.Reader) (Scenario, error) {
	sc := defaults()
	var cur *Phase                   // phase section being filled
	var curCluster *edge.ClusterSpec // cluster section being filled
	inScenario := true               // until the first non-[scenario] header
	inSLO := false                   // inside the [slo] section
	inFidelity := false              // inside the [fidelity] section
	sawScenario := false
	sawSLO := false
	sawFidelity := false
	sawPenalty := false
	curLine := 0                     // header line of the section being filled
	clusterLines := map[string]int{} // cluster name -> defining header line

	// flush closes the open phase/cluster section, rejecting a phase
	// whose duration never became positive — a zero or negative
	// duration would make the timeline clock stand still (or run
	// backwards), and the error should name the offending section, not
	// surface later from a validation pass with no line to point at.
	flush := func() error {
		if cur != nil {
			if cur.DurationSeconds <= 0 {
				return fmt.Errorf("line %d: [phase %s]: duration must be positive, got %v",
					curLine, cur.Name, cur.DurationSeconds)
			}
			sc.Phases = append(sc.Phases, *cur)
			cur = nil
		}
		if curCluster != nil {
			sc.Topology.Clusters = append(sc.Topology.Clusters, *curCluster)
			curCluster = nil
		}
		return nil
	}

	scan := bufio.NewScanner(r)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		line := scan.Text()
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}

		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return Scenario{}, fmt.Errorf("line %d: malformed section header %q", lineNo, line)
			}
			header := strings.TrimSpace(line[1 : len(line)-1])
			if err := flush(); err != nil {
				return Scenario{}, err
			}
			inScenario, inSLO, inFidelity = false, false, false
			switch {
			case header == "scenario":
				if sawScenario {
					return Scenario{}, fmt.Errorf("line %d: duplicate [scenario] section", lineNo)
				}
				sawScenario = true
				inScenario = true
			case header == "slo":
				if sawSLO {
					return Scenario{}, fmt.Errorf("line %d: duplicate [slo] section", lineNo)
				}
				sawSLO = true
				inSLO = true
				if sc.SLO == nil {
					sc.SLO = &fleet.SLO{}
				}
			case header == "fidelity":
				if sawFidelity {
					return Scenario{}, fmt.Errorf("line %d: duplicate [fidelity] section", lineNo)
				}
				sawFidelity = true
				inFidelity = true
				if sc.Fidelity == nil {
					sc.Fidelity = &Fidelity{ExactFraction: fleet.DefaultExactFraction}
				}
			case strings.HasPrefix(header, "phase"):
				name := strings.TrimSpace(strings.TrimPrefix(header, "phase"))
				if name == "" {
					return Scenario{}, fmt.Errorf("line %d: phase section needs a name: [phase NAME]", lineNo)
				}
				p := newPhase(name)
				cur = &p
				curLine = lineNo
			case strings.HasPrefix(header, "cluster"):
				name := strings.TrimSpace(strings.TrimPrefix(header, "cluster"))
				if name == "" {
					return Scenario{}, fmt.Errorf("line %d: cluster section needs a name: [cluster NAME]", lineNo)
				}
				if prev, ok := clusterLines[name]; ok {
					return Scenario{}, fmt.Errorf("line %d: duplicate [cluster %s] section (first declared on line %d)",
						lineNo, name, prev)
				}
				clusterLines[name] = lineNo
				curCluster = &edge.ClusterSpec{Name: name}
				curLine = lineNo
			default:
				return Scenario{}, fmt.Errorf("line %d: unknown section [%s]", lineNo, header)
			}
			continue
		}

		key, value, ok := strings.Cut(line, "=")
		if !ok {
			return Scenario{}, fmt.Errorf("line %d: expected key = value, got %q", lineNo, line)
		}
		key, value = strings.TrimSpace(key), strings.TrimSpace(value)
		var err error
		switch {
		case inScenario:
			sawPenalty = sawPenalty || key == "migration-penalty-ms"
			err = setScenarioKey(&sc, key, value)
		case inSLO:
			err = setSLOKey(sc.SLO, key, value)
		case inFidelity:
			err = setFidelityKey(sc.Fidelity, key, value)
		case curCluster != nil:
			err = setClusterKey(curCluster, key, value)
		default:
			err = setPhaseKey(cur, key, value)
		}
		if err != nil {
			return Scenario{}, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := scan.Err(); err != nil {
		return Scenario{}, err
	}
	if err := flush(); err != nil {
		return Scenario{}, err
	}

	// Validate cannot tell an explicit `migration-penalty-ms = 0` from
	// a hand-built Scenario's zero value; the parser can, and the
	// fail-loudly contract covers every key it accepts.
	if sawPenalty && len(sc.Topology.Clusters) == 0 {
		return Scenario{}, fmt.Errorf("migration-penalty-ms needs [cluster] sections")
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

func setScenarioKey(sc *Scenario, key, value string) error {
	if sub, ok := strings.CutPrefix(key, "autoscale."); ok {
		return setAutoscaleKey(sc, sub, key, value)
	}
	switch key {
	case "name":
		sc.Name = value
	case "mix":
		sc.Mix = value
	case "design":
		d, ok := pipeline.DesignByName(value)
		if !ok {
			return fmt.Errorf("unknown design %q", value)
		}
		sc.Design = d
	case "seed":
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		sc.Seed = v
	case "gpus":
		return parseNonNegInt(value, "gpus", &sc.GPUs)
	case "placement":
		sc.Placement = value
	case "migration-penalty-ms":
		f, err := parseFiniteFloat(value, "migration-penalty-ms")
		if err != nil {
			return err
		}
		sc.MigrationPenaltyMs = f
	case "sessions-per-gpu":
		return parseNonNegInt(value, "sessions-per-gpu", &sc.SessionsPerGPU)
	case "cell-capacity":
		return parseNonNegInt(value, "cell-capacity", &sc.CellCapacity)
	case "frames":
		return parseNonNegInt(value, "frames", &sc.Frames)
	case "warmup":
		return parseNonNegInt(value, "warmup", &sc.Warmup)
	default:
		return fmt.Errorf("unknown [scenario] key %q", key)
	}
	return nil
}

// setAutoscaleKey fills one autoscale.* key in [scenario]. The first
// such key switches the closed-loop controller on; sub is the key with
// the prefix cut, full the original spelling for error messages.
func setAutoscaleKey(sc *Scenario, sub, full, value string) error {
	if sc.Autoscale == nil {
		sc.Autoscale = &autoscale.Config{}
	}
	a := sc.Autoscale
	switch sub {
	case "min-gpus":
		return parseNonNegInt(value, full, &a.MinGPUs)
	case "max-gpus":
		return parseNonNegInt(value, full, &a.MaxGPUs)
	case "step-gpus":
		return parseNonNegInt(value, full, &a.StepGPUs)
	case "provision-delay-s":
		f, err := parseFiniteFloat(value, full)
		if err != nil {
			return err
		}
		a.ProvisionDelaySeconds = f
	case "cooldown-s":
		f, err := parseFiniteFloat(value, full)
		if err != nil {
			return err
		}
		a.CooldownSeconds = f
	case "target-util", "scale-down-util":
		f, err := parseFiniteFloat(value, full)
		if err != nil {
			return err
		}
		// 0 is the "use the default" zero value in the Config; a file
		// writing it explicitly would be silently rewritten, so fail
		// loudly instead.
		if f <= 0 {
			return fmt.Errorf("%s: must be positive, got %v (omit the key for the default)", full, f)
		}
		if sub == "target-util" {
			a.TargetUtil = f
		} else {
			a.ScaleDownUtil = f
		}
	default:
		return fmt.Errorf("unknown [scenario] key %q", full)
	}
	return nil
}

// setSLOKey fills one [slo] section key.
func setSLOKey(slo *fleet.SLO, key, value string) error {
	switch key {
	case "p99-mtp-ms":
		f, err := parseFiniteFloat(value, key)
		if err != nil {
			return err
		}
		slo.P99MTPMs = f
	case "min-90fps-share":
		f, err := parseFiniteFloat(value, key)
		if err != nil {
			return err
		}
		slo.Min90FPSShare = f
	default:
		return fmt.Errorf("unknown [slo] key %q", key)
	}
	return nil
}

// setFidelityKey fills one [fidelity] section key.
func setFidelityKey(f *Fidelity, key, value string) error {
	if metric, ok := strings.CutPrefix(key, "tolerance."); ok {
		v, err := parseFiniteFloat(value, key)
		if err != nil {
			return err
		}
		switch metric {
		case "mtp":
			f.Tolerance.MTP = v
		case "fps":
			f.Tolerance.FPS = v
		case "bytes":
			f.Tolerance.Bytes = v
		case "share":
			f.Tolerance.Share = v
		default:
			return fmt.Errorf("unknown [fidelity] key %q", key)
		}
		return nil
	}
	switch key {
	case "exact-fraction":
		v, err := parseFiniteFloat(value, key)
		if err != nil {
			return err
		}
		f.ExactFraction = v
	case "calibration":
		return parseNonNegInt(value, key, &f.Calibration)
	case "lean":
		// Retired (no run keeps per-session results): older files still
		// parse, and a non-boolean value still fails.
		if value != "true" && value != "false" {
			return fmt.Errorf("lean: expected true or false, got %q", value)
		}
	default:
		return fmt.Errorf("unknown [fidelity] key %q", key)
	}
	return nil
}

// setClusterKey fills one [cluster NAME] section key. RTTs are given
// in milliseconds and bandwidth in Mbit/s — the units humans write —
// and stored in the SI units the simulator computes in.
func setClusterKey(c *edge.ClusterSpec, key, value string) error {
	if region, ok := strings.CutPrefix(key, "rtt."); ok {
		f, err := parseFiniteFloat(value, key)
		if err != nil {
			return err
		}
		if c.RegionRTT == nil {
			c.RegionRTT = map[string]float64{}
		}
		c.RegionRTT[strings.TrimSpace(region)] = f / 1000
		return nil
	}
	switch key {
	case "gpus":
		return parseNonNegInt(value, "gpus", &c.GPUs)
	case "sessions-per-gpu":
		return parseNonNegInt(value, "sessions-per-gpu", &c.SessionsPerGPU)
	case "rtt":
		f, err := parseFiniteFloat(value, "rtt")
		if err != nil {
			return err
		}
		c.RTTSeconds = f / 1000
	case "bandwidth":
		f, err := parseFiniteFloat(value, "bandwidth")
		if err != nil {
			return err
		}
		c.BandwidthBps = f * 1e6
	default:
		return fmt.Errorf("unknown [cluster] key %q", key)
	}
	return nil
}

func setPhaseKey(p *Phase, key, value string) error {
	if scale, ok := strings.CutPrefix(key, "net-scale."); ok {
		f, err := parseFiniteFloat(value, key)
		if err != nil {
			return err
		}
		if p.NetScale == nil {
			p.NetScale = map[string]float64{}
		}
		p.NetScale[strings.TrimSpace(scale)] = f
		return nil
	}
	if name, ok := strings.CutPrefix(key, "cluster-gpus."); ok {
		if p.ClusterGPUs == nil {
			p.ClusterGPUs = map[string]int{}
		}
		var n int
		if err := parseNonNegInt(value, key, &n); err != nil {
			return err
		}
		p.ClusterGPUs[strings.TrimSpace(name)] = n
		return nil
	}
	if name, ok := strings.CutPrefix(key, "cluster-derate."); ok {
		f, err := parseFiniteFloat(value, key)
		if err != nil {
			return err
		}
		if p.ClusterDerate == nil {
			p.ClusterDerate = map[string]float64{}
		}
		p.ClusterDerate[strings.TrimSpace(name)] = f
		return nil
	}
	switch key {
	case "duration":
		f, err := parseFiniteFloat(value, "duration")
		if err != nil {
			return err
		}
		if f <= 0 {
			return fmt.Errorf("duration must be positive, got %v", f)
		}
		p.DurationSeconds = f
	case "sessions":
		return parseNonNegInt(value, "sessions", &p.Sessions)
	case "arrive":
		return parseNonNegInt(value, "arrive", &p.Arrive)
	case "depart":
		return parseNonNegInt(value, "depart", &p.Depart)
	case "arrival-rate":
		f, err := parseFiniteFloat(value, "arrival-rate")
		if err != nil {
			return err
		}
		p.ArrivalRate = f
	case "churn":
		f, err := parseFiniteFloat(value, "churn")
		if err != nil {
			return err
		}
		p.Churn = f
	case "mix":
		p.Mix = value
	case "gpus":
		return parseNonNegInt(value, "gpus", &p.GPUs)
	case "frames":
		return parseNonNegInt(value, "frames", &p.Frames)
	default:
		return fmt.Errorf("unknown [phase] key %q", key)
	}
	return nil
}

// parseFiniteFloat parses a float key, rejecting the NaN/Inf
// spellings strconv accepts — a NaN that slips in here would poison
// every comparison downstream.
func parseFiniteFloat(value, key string) (float64, error) {
	f, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%s: must be finite, got %v", key, f)
	}
	return f, nil
}

// parseNonNegInt parses a non-negative integer key into dst.
func parseNonNegInt(value, key string, dst *int) error {
	v, err := strconv.Atoi(value)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if v < 0 {
		return fmt.Errorf("%s: must not be negative, got %d", key, v)
	}
	*dst = v
	return nil
}
