package fleet

import (
	"fmt"

	"qvr/internal/obs"
)

// Expectations derives the invariants a single fleet run's counters
// must satisfy from its result: the summary side of the double-entry
// books. The counters were incremented at the decision sites
// (admission, placement, the worker loop, the frame sink); the result
// aggregates the same events through entirely separate code, so
// obs.Refute comparing the two is a genuine cross-check of the fleet's
// bookkeeping.
func Expectations(r Result) []obs.Expectation {
	// CSessionsSimulated and CFramesMeasured are exact-DES books: in a
	// mixed-fidelity run the surrogate sessions bypass the stage sinks,
	// so only the stratified exact sample counts.
	simulated := int64(r.summary.Sessions)
	if f := r.Fidelity; f != nil {
		simulated = int64(f.ExactSessions)
	}
	exps := []obs.Expectation{
		{
			Counter: obs.CSessionsSimulated, Want: simulated,
			Source: "exact-DES sessions in Result",
		},
		{
			Counter: obs.CFramesMeasured, Want: r.TotalMeasuredFrames(),
			Source: "sum of Stats.Frames over exact-DES sessions",
		},
		{
			Counter: obs.CAdmitDropped, Want: int64(len(r.Dropped)),
			Source: "len(Result.Dropped)",
		},
	}
	if f := r.Fidelity; f != nil {
		var refuted int64
		for _, c := range f.Checks {
			if !c.OK {
				refuted++
			}
		}
		exps = append(exps,
			obs.Expectation{
				Counter: obs.CSessionsSurrogate, Want: int64(f.SurrogateSessions),
				Source: "FidelityReport.SurrogateSessions",
			},
			obs.Expectation{
				Counter: obs.CFidelityExact, Want: int64(f.ExactSessions),
				Source: "FidelityReport.ExactSessions",
			},
			obs.Expectation{
				Counter: obs.CSurrogateCalibrated, Want: int64(f.CalibrationSessions),
				Source: "FidelityReport.CalibrationSessions",
			},
			obs.Expectation{
				Counter: obs.CFidelityRefuted, Want: refuted,
				Source: "failing checks in FidelityReport",
			},
		)
	}
	if g := r.Contention.Grid; g != nil {
		exps = append(exps,
			obs.Expectation{
				Counter: obs.CPlaceMigrated, Want: int64(g.Migrated),
				Source: fmt.Sprintf("GridReport.Migrated (policy %s)", g.Policy),
			},
			obs.Expectation{
				Counter: obs.CPlaceFailedOver, Want: int64(r.Contention.FailedOver),
				Source: "Contention.FailedOver (grid mode)",
			},
		)
	} else {
		exps = append(exps, obs.Expectation{
			Counter: obs.CAdmitFailedOver, Want: int64(r.Contention.FailedOver),
			Source: "Contention.FailedOver (admission mode)",
		})
	}
	return exps
}
