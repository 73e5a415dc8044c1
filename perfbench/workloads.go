package main

import (
	"fmt"
	"math"

	"qvr/internal/capacity"
	"qvr/internal/edge"
	"qvr/internal/experiments"
	"qvr/internal/fleet"
	"qvr/internal/obs"
	"qvr/internal/pipeline"
	"qvr/internal/scenario"
	"qvr/internal/scene"
)

// workload is one set of inputs the benchmark runs. setup turns the
// seed into the program's inputs; it is the work setup_s times.
type workload struct {
	name  string
	setup func(seed int64, workers int) (job, error)
}

// job is a workload's generated inputs, ready to run repeatedly.
type job interface {
	// run executes one repetition: the closed loop's single operation.
	// tr (nil when untraced) receives spans around the calls into the
	// program; reg (nil when off) collects the program's own counters.
	// A returned error is a failed operation: the program failed, or
	// its output broke one of the workload's checks.
	run(tr *tracer, reg *obs.Registry) (outcome, error)
}

// outcome is what one repetition produced.
type outcome struct {
	// sessions is the simulated sessions the repetition completed,
	// exact and surrogate alike.
	sessions int
	// report is the repetition's deterministic output; its digest must
	// repeat across repetitions.
	report any
	// paperError is the repetition's paper_error, negative when the
	// workload does not produce it.
	paperError float64
}

var workloads = []workload{
	{name: "paper-eval", setup: setupPaper},
	{name: "mega-steady", setup: setupMega},
	{name: "capacity-probe", setup: setupCapacity},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------
// paper-eval: Fig. 12, Fig. 13 and Table 4.
// ---------------------------------------------------------------------

// paperOptions are the experiments package's own test length (80
// measured frames after 30 warm-up), the length its headline bands are
// pinned at. At the paper's 300 + 60 frames one repetition takes about
// 15 s on a 2-vCPU host, too long for a run to hold several.
var paperOptions = experiments.Options{Frames: 80, Warmup: 30}

// The paper's headline figures paper_error compares against.
const (
	paperAvgSpeedup    = 3.4
	paperMaxSpeedup    = 6.7
	paperFPSOverStatic = 4.1
)

// paperDesigns are the designs Fig. 12 compares, with the spellings the
// per-layer metric names use.
var paperDesigns = []struct {
	key    string
	design pipeline.Design
}{
	{"local", pipeline.LocalOnly},
	{"static", pipeline.StaticCollab},
	{"ffr", pipeline.FFR},
	{"dfr", pipeline.DFR},
	{"qvr-sw", pipeline.QVRSoftware},
	{"qvr", pipeline.QVR},
}

type paperJob struct {
	opt experiments.Options
	// configs are the Fig. 12 design x app configurations, keyed by
	// design, for the per-layer pipeline probes.
	configs map[string][]pipeline.Config
}

func setupPaper(seed int64, _ int) (job, error) {
	j := &paperJob{
		opt:     experiments.Options{Frames: paperOptions.Frames, Warmup: paperOptions.Warmup, Seed: seed},
		configs: map[string][]pipeline.Config{},
	}
	for _, d := range paperDesigns {
		for _, app := range scene.EvalApps {
			cfg := pipeline.DefaultConfig(d.design, app)
			cfg.Frames, cfg.Warmup, cfg.Seed = j.opt.Frames, j.opt.Warmup, seed
			j.configs[d.key] = append(j.configs[d.key], cfg)
		}
	}
	return j, nil
}

type paperReport struct {
	Fig12  experiments.Fig12Result
	Fig13  experiments.Fig13Result
	Table4 experiments.Table4Result
}

func (j *paperJob) run(tr *tracer, _ *obs.Registry) (outcome, error) {
	var r paperReport
	tr.timed("experiments.Fig12", func() { r.Fig12 = experiments.Fig12(j.opt) })
	tr.timed("experiments.Fig13", func() { r.Fig13 = experiments.Fig13(j.opt) })
	tr.timed("experiments.Table4", func() { r.Table4 = experiments.Table4(j.opt) })
	out := outcome{report: r, paperError: paperError(r.Fig12)}
	// Fig. 12 runs six designs per app, Fig. 13 four, Table 4 one per
	// (frequency, network) cell.
	out.sessions = 6*len(r.Fig12.Rows) + 4*len(r.Fig13.Rows) + len(r.Table4.Cells)
	return out, checkPaper(r)
}

// paperError is the worst relative error of the simulated headlines
// against the paper's average speedup, maximum speedup and Q-VR over
// static frame-rate ratio.
func paperError(r experiments.Fig12Result) float64 {
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	return max(rel(r.AvgQVR, paperAvgSpeedup), rel(r.MaxQVR, paperMaxSpeedup),
		rel(r.QVROverStaticFPS, paperFPSOverStatic))
}

// checkPaper holds the evaluation to its shape and to the headline
// bands the experiments package's own tests use.
func checkPaper(r paperReport) error {
	apps := len(scene.EvalApps)
	switch {
	case len(r.Fig13.Rows) != apps:
		return fmt.Errorf("paper-eval: %d Fig. 13 rows, want %d", len(r.Fig13.Rows), apps)
	case len(r.Table4.Cells) != 9*apps:
		return fmt.Errorf("paper-eval: %d Table 4 cells, want %d", len(r.Table4.Cells), 9*apps)
	case r.Fig13.QVROverStaticReduction < 0.75:
		return fmt.Errorf("paper-eval: transmit reduction %.3f below 0.75", r.Fig13.QVROverStaticReduction)
	}
	return checkFig12(r.Fig12)
}

func checkFig12(f12 experiments.Fig12Result) error {
	switch {
	case len(f12.Rows) != len(scene.EvalApps):
		return fmt.Errorf("paper-eval: %d Fig. 12 rows, want %d", len(f12.Rows), len(scene.EvalApps))
	case f12.AvgQVR < 2.3 || f12.AvgQVR > 4.5:
		return fmt.Errorf("paper-eval: average Q-VR speedup %.3f outside [2.3, 4.5]", f12.AvgQVR)
	case f12.MaxQVR < 4:
		return fmt.Errorf("paper-eval: maximum Q-VR speedup %.3f below 4", f12.MaxQVR)
	case f12.QVROverStaticFPS < 2.5:
		return fmt.Errorf("paper-eval: Q-VR/static FPS %.3f below 2.5", f12.QVROverStaticFPS)
	case f12.QVROverSWFPS < 1.3:
		return fmt.Errorf("paper-eval: Q-VR/software FPS %.3f below 1.3", f12.QVROverSWFPS)
	case !(f12.AvgQVR > f12.AvgDFR && f12.AvgDFR > f12.AvgFFR):
		return fmt.Errorf("paper-eval: design ordering broken: ffr %.3f dfr %.3f qvr %.3f", f12.AvgFFR, f12.AvgDFR, f12.AvgQVR)
	}
	return nil
}

// ---------------------------------------------------------------------
// mega-steady: a scenario timeline of many short exact sessions.
// ---------------------------------------------------------------------

// mega-steady runs the built-in timeline at a twentieth of its
// population, so that one repetition takes about two seconds and a run
// holds several; the phase shape, mix and frame budget are the
// built-in's, with frames trimmed as `make scale-smoke` trims them.
const megaRamp, megaPeak = 100, 1000

func megaText(seed int64) string {
	return fmt.Sprintf(`
[scenario]
name   = mega-steady
mix    = mixed
seed   = %d
frames = 2
warmup = 1

[phase ramp]
duration = 60
sessions = %d

[phase peak]
duration = 120
sessions = %d

[phase sustain]
duration = 120
sessions = %d
`, seed, megaRamp, megaPeak, megaPeak)
}

type scenarioJob struct {
	text    string
	sc      scenario.Scenario
	workers int
	// want is the active population each phase must report.
	want []int
	// specs is the peak phase's population.
	specs []fleet.SessionSpec
}

// setupMega parses and validates the generated timeline and mints its
// peak population.
func setupMega(seed int64, workers int) (job, error) {
	text := megaText(seed)
	sc, err := scenario.ParseString(text)
	if err != nil {
		return nil, err
	}
	mix, ok := fleet.MixByName(sc.Mix)
	if !ok {
		return nil, fmt.Errorf("scenario %q: unknown mix %q", sc.Name, sc.Mix)
	}
	specs, err := mix.Specs(megaPeak, sc.Design, sc.Frames, sc.Warmup, sc.Seed)
	if err != nil {
		return nil, err
	}
	return &scenarioJob{text: text, sc: sc, workers: workers, want: []int{megaRamp, megaPeak, megaPeak}, specs: specs}, nil
}

// scenarioReport is the deterministic report qvr-scenario prints with
// -format json.
type scenarioReport struct {
	Scenario string        `json:"scenario"`
	Seed     int64         `json:"seed"`
	Phases   []phaseReport `json:"phases"`
	Rollup   fleet.Rollup  `json:"rollup"`
}

type phaseReport struct {
	Name     string        `json:"name"`
	Active   int           `json:"active"`
	Arrived  int           `json:"arrived"`
	Departed int           `json:"departed"`
	Summary  fleet.Summary `json:"summary"`
}

func (j *scenarioJob) run(tr *tracer, reg *obs.Registry) (outcome, error) {
	var r scenario.Result
	var err error
	tr.timed("scenario.Run", func() {
		r, err = scenario.Run(j.sc, scenario.Options{Workers: j.workers, Obs: reg})
	})
	out := outcome{paperError: -1}
	if err != nil {
		return out, err
	}
	rep := scenarioReport{Scenario: r.Scenario.Name, Seed: r.Scenario.Seed, Rollup: r.Rollup}
	for _, p := range r.Phases {
		rep.Phases = append(rep.Phases, phaseReport{
			Name: p.Phase.Name, Active: p.Active, Arrived: p.Arrived, Departed: p.Departed,
			Summary: p.Summary.Summary,
		})
		out.sessions += p.Summary.Summary.Sessions
	}
	out.report = rep
	return out, j.check(r)
}

// check holds each phase to its generated population.
func (j *scenarioJob) check(r scenario.Result) error {
	if len(r.Phases) != len(j.want) {
		return fmt.Errorf("%s: %d phases, want %d", j.sc.Name, len(r.Phases), len(j.want))
	}
	for i, p := range r.Phases {
		s := p.Summary.Summary
		if p.Active != j.want[i] || s.Sessions+s.Dropped != p.Active {
			return fmt.Errorf("%s phase %s: active %d (simulated %d + dropped %d), want %d",
				j.sc.Name, p.Phase.Name, p.Active, s.Sessions, s.Dropped, j.want[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// capacity-probe: knee search and sweep on a two-site grid.
// ---------------------------------------------------------------------

// capacityText is the capacity-probe built-in. It runs exact, with
// frames trimmed: the calibrated fast path is refuted on this grid
// (see README.md).
func capacityText(seed int64) string {
	return fmt.Sprintf(`
[scenario]
name      = capacity-probe
mix       = mixed
placement = score
seed      = %d
frames    = %d
warmup    = %d

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
`, seed, capacityFrames, capacityWarmup)
}

const (
	capacityFrames, capacityWarmup = 20, 4
	// capacityMax pins the knee search's ceiling at the probe's own
	// default for this grid (4x its full-speed capacity).
	capacityMax = 64
)

type capacityJob struct {
	text string
	cfg  capacity.Config
	// grid and specs are the topology's scheduler and the search
	// ceiling's population, for the per-layer placement probe.
	grid  *edge.Grid
	specs []fleet.SessionSpec
}

func setupCapacity(seed int64, workers int) (job, error) {
	text := capacityText(seed)
	sc, err := scenario.ParseString(text)
	if err != nil {
		return nil, err
	}
	policy, ok := edge.PolicyByName(sc.Placement)
	if !ok {
		return nil, fmt.Errorf("capacity-probe: unknown placement %q", sc.Placement)
	}
	grid, err := edge.NewGrid(sc.Topology, policy)
	if err != nil {
		return nil, err
	}
	if err := grid.BeginPhase(nil, nil); err != nil {
		return nil, err
	}
	mix, ok := fleet.MixByName(sc.Mix)
	if !ok {
		return nil, fmt.Errorf("capacity-probe: unknown mix %q", sc.Mix)
	}
	specs, err := mix.Specs(capacityMax, sc.Design, sc.Frames, sc.Warmup, sc.Seed)
	if err != nil {
		return nil, err
	}
	return &capacityJob{
		text: text,
		cfg:  capacity.Config{Scenario: sc, MinSessions: 1, MaxSessions: capacityMax, Workers: workers},
		grid: grid, specs: specs,
	}, nil
}

func (j *capacityJob) run(tr *tracer, reg *obs.Registry) (outcome, error) {
	cfg := j.cfg
	cfg.Obs = reg
	var rep capacity.Report
	var err error
	tr.timed("capacity.Probe", func() { rep, err = capacity.Probe(cfg) })
	out := outcome{report: rep, paperError: -1}
	if err != nil {
		return out, err
	}
	// Probe points are memoized per session count, so each distinct
	// count is one fleet run.
	seen := map[int]bool{}
	for _, pts := range [][]capacity.Point{rep.Search, rep.Knee} {
		for _, p := range pts {
			if !seen[p.Sessions] {
				seen[p.Sessions] = true
				out.sessions += p.Sessions
			}
		}
	}
	if rep.Outcome != capacity.OutcomeKnee || rep.KneeSessions <= cfg.MinSessions || rep.KneeSessions >= cfg.MaxSessions {
		return out, fmt.Errorf("capacity-probe: outcome %s at %d sessions, want a knee strictly inside [%d, %d]",
			rep.Outcome, rep.KneeSessions, cfg.MinSessions, cfg.MaxSessions)
	}
	return out, nil
}
