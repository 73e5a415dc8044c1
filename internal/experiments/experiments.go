// Package experiments regenerates every table and figure of the
// paper's evaluation from the simulation pipeline. Each experiment
// returns a typed result plus a Render method producing the text table
// the qvr-bench tool prints; EXPERIMENTS.md records these outputs next
// to the paper's published numbers.
//
// Experiment index:
//
//	Fig3     - local-only and remote-only latency breakdowns + FPS
//	Table1   - static collaborative rendering characterization
//	Fig5     - interaction distance vs single-object render latency
//	Fig6     - foveal rendering latency vs eccentricity + frame size
//	Fig12    - overall speedups (Static/FFR/DFR/Q-VR, SW-FPS/QVR-FPS)
//	Fig13    - transmitted data + resolution reduction
//	Fig14    - per-frame latency-ratio and FPS convergence series
//	Table4   - steady-state eccentricity across freq x network
//	Fig15    - normalized system energy across freq x network
//	Overhead - Section 4.3 area/power/latency overheads
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"qvr/internal/pipeline"
	"qvr/internal/scene"
)

// Options tune experiment fidelity; zero values select evaluation
// defaults (300 measured frames, 60 warmup).
type Options struct {
	Frames int
	Warmup int
	Seed   int64
}

func (o Options) fill() Options {
	if o.Frames <= 0 {
		o.Frames = 300
	}
	if o.Warmup <= 0 {
		o.Warmup = 60
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// config builds one pipeline configuration under the options; the
// experiments collect these and run them through the worker pool
// (stream or materialize).
func (o Options) config(d pipeline.Design, app scene.App, mutate func(*pipeline.Config)) pipeline.Config {
	cfg := pipeline.DefaultConfig(d, app)
	cfg.Frames = o.Frames
	cfg.Warmup = o.Warmup
	cfg.Seed = o.Seed
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// table formats rows with aligned columns.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

func ms(sec float64) string  { return fmt.Sprintf("%.1f", sec*1000) }
func pct(f float64) string   { return fmt.Sprintf("%.0f%%", f*100) }
func ratio(f float64) string { return fmt.Sprintf("%.2fx", f) }
