// Package netsim models the network between the mobile client and the
// remote rendering server.
//
// The paper estimates network latency by dividing compressed frame size
// by downlink throughput, inserts 20 dB-SNR white noise into the
// channel, and validates the model against netcat over real links
// (Section 5). Three downlink conditions are evaluated (Table 2):
// Wi-Fi 200 Mbps, 4G LTE 100 Mbps, and early 5G 500 Mbps.
//
// This package provides two layers:
//
//   - Link: the analytic channel model the event-driven simulator uses.
//     Per-transfer effective throughput carries lognormal jitter derived
//     from the SNR, transfers pay half an RTT of propagation plus a
//     protocol-efficiency derate, and packet loss inflates latency via
//     retransmissions. The link also tracks an EWMA of acknowledged
//     throughput — the hardware-level signal the LIWC reads instead of
//     waiting for software timing (Section 4.1: "monitor the network's
//     ACK packets for assessing the remote latencies").
//
//   - Transport: a real, goroutine-based shaped message channel used by
//     the examples and integration tests, demonstrating the parallel
//     per-layer streaming of Fig. 7 with live backpressure.
package netsim

import (
	"math"
	"math/rand"

	"qvr/internal/randpool"
)

// Condition is a named network environment.
type Condition struct {
	Name string
	// BandwidthBps is the nominal downlink in bits per second.
	BandwidthBps float64
	// RTTSeconds is the round-trip propagation+queueing time.
	RTTSeconds float64
	// Efficiency derates nominal bandwidth for protocol overhead
	// (headers, pacing, codec container).
	Efficiency float64
	// SNRdB sets channel noise; 20 dB is the paper's setting.
	SNRdB float64
	// LossRate is the packet loss probability per transfer unit.
	LossRate float64
}

// The evaluated network conditions (Table 2). LTE pays a markedly
// higher RTT than Wi-Fi, which is why Table 4 shows the controller
// pushing more work local on LTE.
var (
	WiFi = Condition{
		Name: "Wi-Fi", BandwidthBps: 200e6, RTTSeconds: 0.005,
		Efficiency: 0.65, SNRdB: 20, LossRate: 0.0015,
	}
	LTE4G = Condition{
		Name: "4G LTE", BandwidthBps: 100e6, RTTSeconds: 0.030,
		Efficiency: 0.60, SNRdB: 20, LossRate: 0.003,
	}
	Early5G = Condition{
		Name: "Early 5G", BandwidthBps: 500e6, RTTSeconds: 0.003,
		Efficiency: 0.65, SNRdB: 20, LossRate: 0.001,
	}
)

// Conditions lists the evaluated environments in Table 2 order.
var Conditions = []Condition{WiFi, LTE4G, Early5G}

// ConditionByName looks up a condition.
func ConditionByName(name string) (Condition, bool) {
	for _, c := range Conditions {
		if c.Name == name {
			return c, true
		}
	}
	return Condition{}, false
}

// WANPath builds the Condition for a metro/backbone leg between an
// edge site and a client's access network: the per-session slice of a
// provisioned wide-area path. Backbone links are engineered, so the
// path carries high protocol efficiency, a clean 30 dB SNR and
// negligible loss; what distinguishes edge sites is the RTT and the
// per-session bandwidth slice, which is exactly what the edge grid's
// topology declares. bandwidthBps == 0 means the path never bottlenecks
// serialization (only propagation counts).
func WANPath(name string, rttSeconds, bandwidthBps float64) Condition {
	if rttSeconds < 0 {
		rttSeconds = 0
	}
	if bandwidthBps < 0 {
		bandwidthBps = 0
	}
	return Condition{
		Name:         name,
		BandwidthBps: bandwidthBps,
		RTTSeconds:   rttSeconds,
		Efficiency:   0.9,
		SNRdB:        30,
		LossRate:     1e-5,
	}
}

// MinShareFactor is the floor Scaled clamps to: a session's share of
// an access medium never drops below 0.01% of nominal, so a cell
// driven to zero (a scenario blackout phase, or a degenerate share
// computation) stalls transfers enormously instead of producing
// zero/negative bandwidth and infinite or negative airtimes.
const MinShareFactor = 1e-4

// Scaled returns the condition with its bandwidth derated by factor:
// the per-session view of an access medium shared with other active
// sessions on the same cell or AP. Propagation and noise
// characteristics are unchanged. Factors >= 1 leave the condition
// untouched; zero and negative factors clamp to MinShareFactor.
func (c Condition) Scaled(factor float64) Condition {
	if factor >= 1 {
		return c
	}
	// Fail closed: NaN compares false against everything, so the
	// clamp must test for the valid range, not the invalid one.
	if !(factor >= MinShareFactor) {
		factor = MinShareFactor
	}
	c.BandwidthBps *= factor
	return c
}

// AirtimeSeconds returns the time the radio actively occupies the
// link to move a payload: serialization at efficiency-derated nominal
// bandwidth, excluding propagation. Energy accounting and pipelined
// throughput use this; end-to-end latency uses TransferSeconds.
func (c Condition) AirtimeSeconds(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes*8) / (c.BandwidthBps * c.Efficiency)
}

// jitterSigma converts SNR in dB to a relative throughput jitter: at
// 20 dB the noise amplitude is 10% of signal, so effective throughput
// wobbles about that much per transfer.
func (c Condition) jitterSigma() float64 {
	if c.SNRdB <= 0 {
		return 0.5
	}
	return math.Pow(10, -c.SNRdB/20)
}

// Link is the simulator-facing channel model. It is not safe for
// concurrent use; the event-driven simulator is single-threaded.
type Link struct {
	cond Condition
	rng  *rand.Rand

	// ewma tracks acknowledged goodput in bits/sec, the LIWC's input.
	ewma float64
	// outageUntil suppresses the link for failure-injection tests.
	outageUntil float64
	// transfers counts completed transfers.
	transfers int64
}

// NewLink creates a seeded link under the given condition.
func NewLink(c Condition, seed int64) *Link {
	l := &Link{}
	l.Reset(c, seed)
	return l
}

// Reset re-initializes the link in place, as NewLink returns it: any
// random source it still holds goes back to the pool and a freshly
// seeded one comes out, and the outage and throughput history clear.
func (l *Link) Reset(c Condition, seed int64) {
	randpool.Put(l.rng)
	*l = Link{cond: c, rng: randpool.Get(seed), ewma: c.BandwidthBps * c.Efficiency}
}

// Release hands the link's random source back for reuse by a later
// link. The link must not transfer afterwards; a second Release does
// nothing.
func (l *Link) Release() {
	randpool.Put(l.rng)
	l.rng = nil
}

// Condition returns the link's environment.
func (l *Link) Condition() Condition { return l.cond }

// effectiveBps draws this transfer's goodput.
func (l *Link) effectiveBps() float64 {
	sigma := l.cond.jitterSigma()
	// Lognormal with median at nominal efficiency-derated bandwidth.
	n := math.Exp(l.rng.NormFloat64()*sigma - sigma*sigma/2)
	bps := l.cond.BandwidthBps * l.cond.Efficiency * n
	if bps < 1e3 {
		bps = 1e3
	}
	return bps
}

// RequestSeconds is the uplink cost of issuing a remote frame request
// (a small control packet): half an RTT.
func (l *Link) RequestSeconds() float64 { return l.cond.RTTSeconds / 2 }

// TransferSeconds returns the downlink time for a payload of the given
// size at simulated time now (seconds), including propagation, jitter,
// and loss-induced retransmission, and updates the acknowledged-
// throughput EWMA.
func (l *Link) TransferSeconds(bytes int, now float64) float64 {
	if bytes <= 0 {
		return l.cond.RTTSeconds / 2
	}
	if now < l.outageUntil {
		// During an outage the transfer stalls until service resumes,
		// then proceeds.
		stall := l.outageUntil - now
		return stall + l.TransferSeconds(bytes, l.outageUntil)
	}
	bps := l.effectiveBps()
	t := float64(bytes*8)/bps + l.cond.RTTSeconds/2

	// Losses force retransmission rounds: each lost segment pays an
	// extra RTT plus its payload again. Approximate with expected cost.
	if l.cond.LossRate > 0 {
		segments := float64(bytes)/1460 + 1
		expectedLost := segments * l.cond.LossRate
		t += expectedLost * (l.cond.RTTSeconds + 1460*8/bps)
	}

	// Acknowledged goodput feeds the LIWC's network monitor.
	achieved := float64(bytes*8) / t
	const alpha = 0.25
	l.ewma = (1-alpha)*l.ewma + alpha*achieved
	l.transfers++
	return t
}

// ParallelTransferSeconds models the parallel per-layer streams of
// Fig. 7: the layers share the downlink, so the completion time is the
// aggregate payload over the link plus a single propagation delay —
// but each stream pays its own container overhead, so splitting is not
// free.
func (l *Link) ParallelTransferSeconds(layerBytes []int, now float64) float64 {
	total := 0
	for _, b := range layerBytes {
		if b > 0 {
			total += b + 120 // per-stream framing overhead
		}
	}
	return l.TransferSeconds(total, now)
}

// ObservedThroughputBps returns the ACK-derived goodput estimate.
func (l *Link) ObservedThroughputBps() float64 { return l.ewma }

// Transfers returns the number of completed transfers.
func (l *Link) Transfers() int64 { return l.transfers }

// InjectOutage makes the link unavailable from `from` for `dur`
// seconds (failure injection for robustness tests).
func (l *Link) InjectOutage(from, dur float64) {
	l.outageUntil = from + dur
}
