package scenario

import (
	"math"

	"qvr/internal/obs"
	"qvr/internal/obs/series"
)

// SeriesMeta describes a run of the scenario by tool for the flight
// recorder's opening record, including the SLO targets the per-window
// verdicts use.
func (sc Scenario) SeriesMeta(tool string) series.Meta {
	m := series.Meta{Tool: tool, Scenario: sc.Name}
	if sc.SLO != nil {
		m.SLOP99MTPMs = sc.SLO.P99MTPMs
		m.SLOMin90FPSShare = sc.SLO.Min90FPSShare
	}
	return m
}

// Expectations derives the invariants a completed timeline's counters
// must satisfy from its result — the scenario-level half of the
// double-entry books that obs.Refute reconciles. The counters were
// incremented at the decision sites (the fleet worker loop, the grid's
// placement passes, the autoscaler's action sites, the driver's phase
// loop); this function re-derives the same totals from the summaries,
// which aggregate through entirely separate code.
func Expectations(res Result) []obs.Expectation {
	var sessions, frames, dropped, failedOver int64
	var gpuMs, gpuEntries int64
	var surrogate, exact, calibrated, refuted int64
	fidelity := false
	for _, pr := range res.Phases {
		s := pr.Summary.Summary
		sessions += int64(s.Sessions)
		dropped += int64(s.Dropped)
		failedOver += int64(s.FailedOver)
		frames += pr.Fleet.TotalMeasuredFrames()
		if f := pr.Fleet.Fidelity; f != nil {
			// Mixed-fidelity phases keep exact-DES books: only the
			// stratified sample streamed through the stage sinks.
			fidelity = true
			sessions += int64(f.ExactSessions) - int64(s.Sessions)
			surrogate += int64(f.SurrogateSessions)
			exact += int64(f.ExactSessions)
			calibrated += int64(f.CalibrationSessions)
			for _, c := range f.Checks {
				if !c.OK {
					refuted++
				}
			}
		}
		gpuMs += int64(math.Round(pr.GPUSeconds * 1000))
		if g := pr.Fleet.Contention.Grid; g != nil {
			gpuEntries += int64(len(g.Clusters))
		}
	}

	exps := []obs.Expectation{
		{Counter: obs.CPhases, Want: int64(len(res.Phases)), Source: "len(Result.Phases)"},
		{Counter: obs.CSessionsSimulated, Want: sessions, Source: "sum of exact-DES phase sessions"},
		{Counter: obs.CFramesMeasured, Want: frames, Source: "sum of exact-DES frames over phases"},
		{Counter: obs.CAdmitDropped, Want: dropped, Source: "sum of phase Summary.Dropped"},
	}
	if fidelity {
		exps = append(exps,
			obs.Expectation{
				Counter: obs.CSessionsSurrogate, Want: surrogate,
				Source: "sum of phase FidelityReport.SurrogateSessions",
			},
			obs.Expectation{
				Counter: obs.CFidelityExact, Want: exact,
				Source: "sum of phase FidelityReport.ExactSessions",
			},
			obs.Expectation{
				Counter: obs.CSurrogateCalibrated, Want: calibrated,
				Source: "sum of phase FidelityReport.CalibrationSessions",
			},
			obs.Expectation{
				Counter: obs.CFidelityRefuted, Want: refuted,
				Source: "failing checks across phase FidelityReports",
			},
		)
	}

	if len(res.Scenario.Topology.Clusters) > 0 {
		exps = append(exps,
			obs.Expectation{
				Counter: obs.CPlaceMigrated, Want: int64(res.Rollup.TotalMigrated),
				Source: "Rollup.TotalMigrated",
			},
			obs.Expectation{
				Counter: obs.CPlaceFailedOver, Want: failedOver,
				Source: "sum of phase Summary.FailedOver (grid mode)",
			},
			obs.Expectation{
				// The counter accumulated integer milliseconds per
				// (phase, cluster); the summary re-derivation rounds once
				// per phase — allow one millisecond of slack per entry.
				Counter: obs.CGridGPUMs, Want: gpuMs, Tolerance: gpuEntries,
				Source: "sum of phase GPUSeconds",
			},
		)
	} else {
		exps = append(exps, obs.Expectation{
			Counter: obs.CAdmitFailedOver, Want: failedOver,
			Source: "sum of phase Summary.FailedOver (admission mode)",
		})
	}

	if rep := res.Autoscale; rep != nil {
		var ups, downs int64
		for _, ev := range rep.Events {
			if ev.ToGPUs > ev.FromGPUs {
				ups++
			} else {
				downs++
			}
		}
		exps = append(exps,
			obs.Expectation{
				Counter: obs.CScaleUp, Want: ups,
				Source: "AutoscaleReport scale-up events",
			},
			obs.Expectation{
				Counter: obs.CScaleDown, Want: downs,
				Source: "AutoscaleReport scale-down events",
			},
			obs.Expectation{
				// The same counter, cross-checked against the autoscaler's
				// own GPU-seconds aggregation: the report must agree with
				// the per-phase accounting it was built from.
				Counter: obs.CGridGPUMs, Want: int64(math.Round(rep.GPUSeconds * 1000)),
				Tolerance: gpuEntries + int64(len(res.Phases)),
				Source:    "AutoscaleReport.GPUSeconds",
			},
		)
	}
	return exps
}
