// Package edge is the geo-distributed render grid: many named edge
// clusters, each a remote render site with its own capacity and its
// own wide-area network path, plus the placement scheduler that binds
// every fleet session to the site that serves it best.
//
// The paper evaluates one client against one co-located render
// cluster; internal/fleet scaled that to many clients against one
// shared cluster. Production-scale serving is neither: it is many
// clusters in many regions, with heterogeneous capacity, per-region
// RTTs, and sites that degrade or disappear while sessions are live.
// This package models that layer:
//
//   - Topology: a declarative list of ClusterSpecs — chiplet count,
//     per-GPU session capacity, and the WAN path (RTT, optional
//     per-session bandwidth slice, per-region RTT overrides) between
//     the site and each user region.
//   - Placement: a Grid schedules sessions onto sites under a
//     pluggable Policy (nearest-RTT, least-loaded, or a latency x
//     load score), spilling to the next-best site when one saturates
//     past its queue limit.
//   - Migration and failover: placements are sticky across phases of
//     a scenario timeline; when a site goes down or saturates, its
//     sessions re-place onto surviving sites — paying a one-time
//     handoff stall — and only when every site is full do they
//     degrade to local-only rendering. The grid never drops a
//     session.
//
// The Grid implements fleet.Placer, so fleet.Run consults it in place
// of the single-cluster admission layer, and scenario timelines drive
// it phase by phase (site outages, derates, regional load swings).
// All scheduling state lives in plain slices and maps touched only
// from the single-threaded placement call. The fleet's worker pool
// sees only the binding that call returns, which reads values fixed
// when it returned, so grid results are deterministic for any worker
// count.
package edge

import (
	"fmt"
	"math"
	"strings"
)

// ClusterSpec declares one edge render site in a topology.
type ClusterSpec struct {
	// Name identifies the site ("us-west", "eu-central").
	Name string
	// GPUs is the site's chiplet GPU count. 0 declares a site that
	// starts down (a scenario phase may bring it up).
	GPUs int
	// SessionsPerGPU is the site's full-speed session capacity per
	// GPU; 0 uses the fleet admission default (4).
	SessionsPerGPU int
	// RTTSeconds is the base WAN round trip between the site and a
	// user whose region has no specific entry in RegionRTT.
	RTTSeconds float64
	// BandwidthBps is the per-session bandwidth slice of the site's
	// provisioned ingress path; 0 means the path never bottlenecks
	// serialization.
	BandwidthBps float64
	// RegionRTT overrides RTTSeconds per user region: the geography
	// that makes one site "nearest" for some users and distant for
	// others.
	RegionRTT map[string]float64
}

// RTTFor resolves the WAN round trip for a user region.
func (c ClusterSpec) RTTFor(region string) float64 {
	if rtt, ok := c.RegionRTT[region]; ok {
		return rtt
	}
	return c.RTTSeconds
}

// Topology is a declarative edge-grid layout. Cluster order is
// significant: it is the deterministic tie-break for placement
// scoring and the order reports list sites in.
type Topology struct {
	Clusters []ClusterSpec
}

// ClusterByName looks a site up.
func (t Topology) ClusterByName(name string) (ClusterSpec, bool) {
	for _, c := range t.Clusters {
		if c.Name == name {
			return c, true
		}
	}
	return ClusterSpec{}, false
}

// Validate checks the topology for the mistakes a hand-written
// cluster section can make, naming the offending site.
func (t Topology) Validate() error {
	if len(t.Clusters) == 0 {
		return fmt.Errorf("edge: topology has no clusters")
	}
	seen := map[string]bool{}
	for i, c := range t.Clusters {
		// The error context is formatted only on failure: a probe
		// re-validates its topology at every point.
		where := func() string { return fmt.Sprintf("edge: cluster %d (%q)", i, c.Name) }
		if c.Name == "" {
			return fmt.Errorf("edge: cluster %d: missing name", i)
		}
		// Cluster names reach CSV rows and table columns unescaped.
		if strings.ContainsAny(c.Name, ",\"\n") {
			return fmt.Errorf("%s: name must not contain commas, quotes or newlines", where())
		}
		if seen[c.Name] {
			return fmt.Errorf("%s: duplicate cluster name", where())
		}
		seen[c.Name] = true
		if c.GPUs < 0 {
			return fmt.Errorf("%s: gpus must not be negative, got %d", where(), c.GPUs)
		}
		if c.SessionsPerGPU < 0 {
			return fmt.Errorf("%s: sessions-per-gpu must not be negative, got %d", where(), c.SessionsPerGPU)
		}
		// Fail closed: NaN compares false against everything, so test
		// for the valid range, not the invalid one.
		if !(c.RTTSeconds >= 0 && !math.IsInf(c.RTTSeconds, 0)) {
			return fmt.Errorf("%s: rtt %v must be non-negative and finite", where(), c.RTTSeconds)
		}
		if !(c.BandwidthBps >= 0 && !math.IsInf(c.BandwidthBps, 0)) {
			return fmt.Errorf("%s: bandwidth %v must be non-negative and finite", where(), c.BandwidthBps)
		}
		for region, rtt := range c.RegionRTT {
			if !(rtt >= 0 && !math.IsInf(rtt, 0)) {
				return fmt.Errorf("%s: rtt.%s = %v must be non-negative and finite", where(), region, rtt)
			}
		}
	}
	return nil
}
