package fleet

import (
	"sort"

	"qvr/internal/pipeline"
	"qvr/internal/stats"
)

// Summary is the fleet-level metric roll-up: what an operator's
// dashboard would show for this slice of the user population.
type Summary struct {
	// Sessions/Dropped/Workers describe the run shape. FailedOver is
	// the subset of Sessions forced onto local-only rendering by a
	// remote-cluster outage.
	Sessions   int `json:"sessions"`
	Dropped    int `json:"dropped"`
	FailedOver int `json:"failed_over"`
	Workers    int `json:"workers"`

	// Migrated counts sessions the edge grid moved between clusters
	// this window (0 outside grid mode).
	Migrated int `json:"migrated"`

	// P50/P95/P99MTPMs are motion-to-photon percentiles in
	// milliseconds over every measured frame of every session — the
	// fleet's judder tail.
	P50MTPMs float64 `json:"p50_mtp_ms"`
	P95MTPMs float64 `json:"p95_mtp_ms"`
	P99MTPMs float64 `json:"p99_mtp_ms"`

	// MeanFPS is the mean per-session sustainable frame rate;
	// AggregateFPS the fleet-wide frames per second delivered.
	MeanFPS      float64 `json:"mean_fps"`
	AggregateFPS float64 `json:"aggregate_fps"`

	// AggregateMBps is the fleet's total downlink demand in
	// megabytes per second (per-session bytes/frame x FPS, summed).
	AggregateMBps float64 `json:"aggregate_mbps"`

	// TargetShare is the fraction of requested sessions sustaining at
	// least 95% of the 90 FPS display rate. Dropped sessions count
	// against it: a user the cluster refused gets 0 FPS.
	TargetShare float64 `json:"target_share"`

	// QueueMs and Load echo the admission layer's contention report.
	QueueMs float64 `json:"queue_ms"`
	Load    float64 `json:"load"`

	// WallSeconds is the host time the simulation took.
	WallSeconds float64 `json:"wall_seconds"`
}

// Summarize returns the fleet metrics: the population roll-up Run
// computed once, plus the run shape and the admission layer's
// contention report.
func (r Result) Summarize() Summary {
	s := r.summary
	s.Dropped = len(r.Dropped)
	s.FailedOver = r.Contention.FailedOver
	s.Workers = r.Workers
	s.QueueMs = r.Contention.QueueSeconds * 1000
	s.Load = r.Contention.Load
	s.WallSeconds = r.WallSeconds
	if g := r.Contention.Grid; g != nil {
		s.Migrated = g.Migrated
		// In grid mode the headline load is the busiest site's: the
		// grid's hot spot is what an operator pages on.
		for _, c := range g.Clusters {
			if c.Load > s.Load {
				s.Load = c.Load
			}
			if c.QueueMs > s.QueueMs {
				s.QueueMs = c.QueueMs
			}
		}
	}
	return s
}

// rollUp computes the population half of Summary once, inside Run:
// sums over the per-session tallies in spec order, then one sort of
// the concatenated worker sample buffers. Every session's samples sit
// in exactly one buffer, whichever worker claimed it, so the merge is
// the multiset of every measured frame for any worker count and any
// schedule, and the nearest-rank percentiles are exact.
func rollUp(tallies []tally, bufs [][]float64, dropped int) Summary {
	s := Summary{Sessions: len(tallies)}
	if len(tallies) == 0 {
		return s
	}
	meeting := 0
	for _, t := range tallies {
		// A session with zero measured frames contributes nothing but
		// still counts toward the population: its FPS is zero, so it
		// misses target like a dropped session would.
		s.MeanFPS += t.fps
		s.AggregateFPS += t.fps
		s.AggregateMBps += t.fps * t.bytes / 1e6
		if t.fps >= 0.95*pipeline.TargetFPS {
			meeting++
		}
	}
	s.MeanFPS /= float64(len(tallies))
	s.TargetShare = float64(meeting) / float64(len(tallies)+dropped)

	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	mtps := make([]float64, 0, total)
	for _, b := range bufs {
		mtps = append(mtps, b...)
	}
	sort.Float64s(mtps)
	s.P50MTPMs = stats.NearestRankSorted(mtps, 0.50) * 1000
	s.P95MTPMs = stats.NearestRankSorted(mtps, 0.95) * 1000
	s.P99MTPMs = stats.NearestRankSorted(mtps, 0.99) * 1000
	return s
}
