package capacity

import (
	"fmt"
	"io"
	"strings"

	"qvr/internal/edge"
	"qvr/internal/fleet"
)

// WriteParams writes the probe's resolved parameters as an
// HPL.dat-style text file (capacity.params): every input that shaped
// the result — topology, SLO, search bounds, seed, sweep and scaling
// grids — one per line, deterministically formatted, so an archived
// result can be re-run byte-for-byte from its params file alone.
func WriteParams(w io.Writer, rep Report, topo edge.Topology, placement string) error {
	line := func(key, format string, args ...interface{}) error {
		_, err := fmt.Fprintf(w, "%-28s: "+format+"\n", append([]interface{}{key}, args...)...)
		return err
	}
	if _, err := fmt.Fprintln(w, "QVR capacity probe parameter file (HPL.dat-style; qvr-capacity reproduces the run from these inputs)"); err != nil {
		return err
	}
	if err := line("scenario", "%s", rep.Scenario); err != nil {
		return err
	}
	if err := line("mix", "%s", rep.Mix); err != nil {
		return err
	}
	if err := line("design", "%s", rep.Design); err != nil {
		return err
	}
	if err := line("seed", "%d", rep.Seed); err != nil {
		return err
	}
	if len(topo.Clusters) > 0 {
		sites := make([]string, len(topo.Clusters))
		for i, c := range topo.Clusters {
			sites[i] = fmt.Sprintf("%s:%d", c.Name, c.GPUs)
		}
		if err := line("topology", "%s", strings.Join(sites, " ")); err != nil {
			return err
		}
		pol := placement
		if pol == "" {
			pol = edge.Score.String()
		}
		if err := line("placement", "%s", pol); err != nil {
			return err
		}
	}
	if err := writeSLOParams(line, rep.SLO); err != nil {
		return err
	}
	p := rep.Params
	if err := line("frames", "%d", p.Frames); err != nil {
		return err
	}
	if err := line("warmup", "%d", p.Warmup); err != nil {
		return err
	}
	if err := line("search.min-sessions", "%d", p.MinSessions); err != nil {
		return err
	}
	if err := line("search.max-sessions", "%d", p.MaxSessions); err != nil {
		return err
	}
	if err := line("knee.grid-points", "%d", p.GridPoints); err != nil {
		return err
	}
	if err := line("knee.grid-span", "%.3f", p.GridSpan); err != nil {
		return err
	}
	if err := line("window-seconds", "%.1f", p.WindowSeconds); err != nil {
		return err
	}
	if p.ExactFraction > 0 {
		if err := line("fidelity.exact-fraction", "%.4f", p.ExactFraction); err != nil {
			return err
		}
		if p.Calibration > 0 {
			if err := line("fidelity.calibration", "%d", p.Calibration); err != nil {
				return err
			}
		}
	}
	if ke := rep.KneeExact; ke != nil {
		// Both readings of the knee, side by side: the fast-path sweep's
		// and the exact-DES confirmation's. A future reader of the params
		// file sees at a glance how far the surrogate sat from the truth
		// at the one session count that matters.
		if fast, ok := kneePoint(rep); ok {
			if err := line("knee.fast-path-p99-mtp-ms", "%.3f", fast.P99MTPMs); err != nil {
				return err
			}
		}
		if err := line("knee.exact-p99-mtp-ms", "%.3f", ke.P99MTPMs); err != nil {
			return err
		}
		if err := line("knee.exact-met", "%t", ke.Met); err != nil {
			return err
		}
	}
	if len(p.ScaleWorkers) > 0 {
		ws := make([]string, len(p.ScaleWorkers))
		for i, n := range p.ScaleWorkers {
			ws[i] = fmt.Sprintf("%d", n)
		}
		if err := line("scaling.workers", "%s", strings.Join(ws, " ")); err != nil {
			return err
		}
		if err := line("scaling.sessions-per-worker", "%d", p.SessionsPerWorker); err != nil {
			return err
		}
		strong := "knee"
		if p.StrongSessions > 0 {
			strong = fmt.Sprintf("%d", p.StrongSessions)
		}
		if err := line("scaling.strong-sessions", "%s", strong); err != nil {
			return err
		}
	}
	return nil
}

// kneePoint finds the fast-path reading at the knee session count in
// the report's curves (the search trace holds it when the sweep's grid
// rounded past it).
func kneePoint(rep Report) (Point, bool) {
	for _, pt := range rep.Knee {
		if pt.Sessions == rep.KneeSessions {
			return pt, true
		}
	}
	for _, pt := range rep.Search {
		if pt.Sessions == rep.KneeSessions {
			return pt, true
		}
	}
	return Point{}, false
}

// writeSLOParams spells the declared targets only, matching the [slo]
// section that drove the probe.
func writeSLOParams(line func(key, format string, args ...interface{}) error, slo fleet.SLO) error {
	if slo.P99MTPMs > 0 {
		if err := line("slo.p99-mtp-ms", "%.1f", slo.P99MTPMs); err != nil {
			return err
		}
	}
	if slo.Min90FPSShare > 0 {
		if err := line("slo.min-90fps-share", "%.3f", slo.Min90FPSShare); err != nil {
			return err
		}
	}
	return nil
}
