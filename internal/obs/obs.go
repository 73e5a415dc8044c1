// Package obs is the deterministic observability layer threaded
// through the fleet stack: named monotonic counters and fixed-bucket
// histograms with hooks at every decision point (admission, placement,
// autoscaling, capacity probing, per-frame stage timings), per-stage
// span tracing to Chrome trace-event JSON, and a CounterPoint-style
// invariant checker (Refute) that cross-checks the counters against
// the end-of-run summaries and fails loudly on divergence.
//
// Everything here preserves the repository's determinism contract:
// counter JSON is byte-identical across worker pool sizes. Two design
// rules make that true. First, the registry is sharded like the
// framesink — each fleet worker owns a private Shard, and the merge is
// a sum of int64s, which is commutative, so the shard count (the
// worker count) can never leak into the output. Second, histograms
// observe integer microsecond (or percent) values only: there is no
// floating-point accumulation whose result could depend on addition
// order.
//
// The hot path stays allocation-free: a Shard's counters and buckets
// are fixed-size arrays indexed by compile-time Counter/Histogram
// constants — no maps, no strings, no interface boxing per frame.
package obs

import (
	"math"
	"sync"
)

// Counter names one monotonic event counter in the fixed catalogue.
// The catalogue is compile-time: a Shard stores counts in a dense
// array indexed by Counter, which is what keeps Inc off the allocator
// and out of any map.
type Counter int

// The counter catalogue. Every decision point in the stack increments
// exactly one of these at the moment the decision is taken — NOT from
// the summary structs — so Refute's cross-checks against the summaries
// are genuine double-entry bookkeeping, not tautologies.
const (
	// CSessionsSimulated counts sessions actually simulated by fleet
	// workers (incremented per session in the worker shard).
	CSessionsSimulated Counter = iota
	// CFramesMeasured counts measured frames streamed through the
	// per-worker StageSink.
	CFramesMeasured
	// CAdmitDropped counts sessions the shared-cluster admission layer
	// refused (tail drops past the queue bound).
	CAdmitDropped
	// CAdmitFailedOver counts sessions degraded to local-only by the
	// admission layer's total-outage path (zero-GPU enabled cluster).
	CAdmitFailedOver
	// CPlaceSticky / CPlacePolicy count the edge grid's placement
	// decisions: sessions kept on their previous site vs placed by the
	// policy (new arrivals and evictees).
	CPlaceSticky
	CPlacePolicy
	// CPlaceMigrated counts sessions moved between sites (policy
	// re-placement and drain-back alike); CPlaceDrainback the subset
	// moved by the drain-back hysteresis pass.
	CPlaceMigrated
	CPlaceDrainback
	// CPlaceFailedOver counts sessions no site could serve, degraded to
	// local-only rendering by the grid.
	CPlaceFailedOver
	// CGridGPUMs accumulates grid capacity consumption in integer
	// GPU-milliseconds (per phase, per cluster).
	CGridGPUMs
	// CScaleUp / CScaleDown count autoscaler decisions;
	// CScaleSuppressedCooldown counts windows where a decision would
	// have fired but the per-cluster cooldown suppressed it.
	CScaleUp
	CScaleDown
	CScaleSuppressedCooldown
	// CPhases counts executed scenario phase windows.
	CPhases
	// CProbePoints counts capacity-probe evaluations that actually ran
	// a fleet (cache misses; the probe memoizes per session count).
	CProbePoints
	// CSessionsSurrogate counts sessions executed by the calibrated
	// analytic fast path instead of the exact discrete-event pipeline.
	CSessionsSurrogate
	// CFidelityExact counts sessions of a mixed-fidelity run that the
	// stratified sampler routed through the exact DES for cross-checking.
	CFidelityExact
	// CSurrogateCalibrated counts exact DES sessions run purely to
	// calibrate the surrogate's per-class exemplar table.
	CSurrogateCalibrated
	// CFidelityRefuted counts fidelity-check metrics whose surrogate
	// error exceeded the declared tolerance (incremented at the
	// comparison site, so a clean run holds this at zero).
	CFidelityRefuted

	numCounters
)

// counterNames is the wire spelling of the catalogue, in Counter
// order. Names follow the Prometheus convention (unit-suffixed,
// _total for monotonic counters).
var counterNames = [numCounters]string{
	CSessionsSimulated:       "fleet_sessions_simulated_total",
	CFramesMeasured:          "fleet_frames_measured_total",
	CAdmitDropped:            "admission_dropped_total",
	CAdmitFailedOver:         "admission_failed_over_total",
	CPlaceSticky:             "grid_place_sticky_total",
	CPlacePolicy:             "grid_place_policy_total",
	CPlaceMigrated:           "grid_migrations_total",
	CPlaceDrainback:          "grid_drainback_migrations_total",
	CPlaceFailedOver:         "grid_failed_over_total",
	CGridGPUMs:               "grid_gpu_ms_total",
	CScaleUp:                 "autoscale_up_total",
	CScaleDown:               "autoscale_down_total",
	CScaleSuppressedCooldown: "autoscale_suppressed_cooldown_total",
	CPhases:                  "scenario_phases_total",
	CProbePoints:             "capacity_probe_points_total",
	CSessionsSurrogate:       "fleet_sessions_surrogate_total",
	CFidelityExact:           "fidelity_exact_sample_total",
	CSurrogateCalibrated:     "surrogate_calibration_sessions_total",
	CFidelityRefuted:         "fidelity_refuted_metrics_total",
}

// counterHelp is the operator-facing description of every counter,
// emitted as the # HELP line of the Prometheus exposition. The test
// suite pins the catalogue complete: a counter without help text is a
// build error caught in CI, not a blank line on a dashboard.
var counterHelp = [numCounters]string{
	CSessionsSimulated:       "Sessions actually simulated by fleet workers.",
	CFramesMeasured:          "Measured frames streamed through the per-worker stage sinks.",
	CAdmitDropped:            "Sessions refused by the shared-cluster admission layer.",
	CAdmitFailedOver:         "Sessions degraded to local-only rendering by an admission-layer outage.",
	CPlaceSticky:             "Placement rounds that kept a session on its previous edge site.",
	CPlacePolicy:             "Sessions placed by the grid policy (new arrivals and evictees).",
	CPlaceMigrated:           "Sessions moved between edge sites (policy re-placement and drain-back).",
	CPlaceDrainback:          "Migrations performed by the drain-back hysteresis pass.",
	CPlaceFailedOver:         "Sessions no edge site could serve, degraded to local-only rendering.",
	CGridGPUMs:               "Grid capacity consumed, in integer GPU-milliseconds.",
	CScaleUp:                 "Autoscaler scale-up decisions.",
	CScaleDown:               "Autoscaler scale-down decisions.",
	CScaleSuppressedCooldown: "Autoscaler decisions suppressed by the per-cluster cooldown.",
	CPhases:                  "Scenario phase windows executed.",
	CProbePoints:             "Capacity-probe evaluations that ran a fleet (cache misses).",
	CSessionsSurrogate:       "Sessions executed by the calibrated analytic fast path.",
	CFidelityExact:           "Sessions routed through the exact DES by the stratified fidelity sampler.",
	CSurrogateCalibrated:     "Exact DES sessions run to calibrate the surrogate exemplar table.",
	CFidelityRefuted:         "Fidelity-check metrics whose surrogate error exceeded tolerance.",
}

// String returns the counter's catalogue name.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "counter(?)"
	}
	return counterNames[c]
}

// Help returns the counter's one-line description.
func (c Counter) Help() string {
	if c < 0 || c >= numCounters {
		return ""
	}
	return counterHelp[c]
}

// Histogram names one fixed-bucket distribution in the catalogue.
// Histograms observe int64 values only (microseconds for latencies,
// percent for loads): integer sums are order-independent, which is
// what keeps the merged output byte-identical across worker counts.
type Histogram int

// The histogram catalogue.
const (
	// Per-frame stage timings, microseconds. The remote-chain family is
	// observed only for frames that actually went remote, so a
	// local-only fleet does not flood the low buckets with zeros.
	HFrameMTPUs Histogram = iota
	HFrameLocalRenderUs
	HFrameRemoteChainUs
	HFrameTransferUs
	HFrameDecodeUs
	// HAdmitQueueUs is the admission/placement queue delay charged per
	// admitted session, microseconds (queue occupancy).
	HAdmitQueueUs
	// HGridLoadPct is per-cluster load (assigned/capacity) in percent,
	// observed once per live site per placement round.
	HGridLoadPct

	numHistograms
)

var histogramNames = [numHistograms]string{
	HFrameMTPUs:         "frame_mtp_us",
	HFrameLocalRenderUs: "frame_local_render_us",
	HFrameRemoteChainUs: "frame_remote_chain_us",
	HFrameTransferUs:    "frame_transfer_us",
	HFrameDecodeUs:      "frame_decode_us",
	HAdmitQueueUs:       "admission_queue_us",
	HGridLoadPct:        "grid_cluster_load_pct",
}

// histogramHelp mirrors counterHelp for the histogram catalogue.
var histogramHelp = [numHistograms]string{
	HFrameMTPUs:         "Per-frame motion-to-photon latency, microseconds.",
	HFrameLocalRenderUs: "Per-frame local render time, microseconds.",
	HFrameRemoteChainUs: "Per-frame remote chain time (frames that went remote), microseconds.",
	HFrameTransferUs:    "Per-frame network transfer time, microseconds.",
	HFrameDecodeUs:      "Per-frame decode time, microseconds.",
	HAdmitQueueUs:       "Admission/placement queue delay charged per admitted session, microseconds.",
	HGridLoadPct:        "Per-cluster load (assigned/capacity) per live site per placement round, percent.",
}

// String returns the histogram's catalogue name.
func (h Histogram) String() string {
	if h < 0 || h >= numHistograms {
		return "histogram(?)"
	}
	return histogramNames[h]
}

// Help returns the histogram's one-line description.
func (h Histogram) Help() string {
	if h < 0 || h >= numHistograms {
		return ""
	}
	return histogramHelp[h]
}

// maxHistBuckets bounds every histogram's bucket array (bounds plus
// one overflow bucket); fixed so a Shard is a single flat allocation.
const maxHistBuckets = 10

// Bucket upper bounds per histogram (values <= bound land in the
// bucket; anything past the last bound lands in the overflow bucket).
var (
	latencyBoundsUs = []int64{1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000}
	queueBoundsUs   = []int64{100, 500, 1000, 2000, 5000, 10000, 50000, 100000, 500000}
	loadBoundsPct   = []int64{25, 50, 75, 100, 125, 150, 200}
)

var histogramBounds = [numHistograms][]int64{
	HFrameMTPUs:         latencyBoundsUs,
	HFrameLocalRenderUs: latencyBoundsUs,
	HFrameRemoteChainUs: latencyBoundsUs,
	HFrameTransferUs:    latencyBoundsUs,
	HFrameDecodeUs:      latencyBoundsUs,
	HAdmitQueueUs:       queueBoundsUs,
	HGridLoadPct:        loadBoundsPct,
}

// Shard is one writer's private slice of the registry: dense int64
// counter and bucket arrays, no locks, no allocation per operation.
// A Shard belongs to exactly one goroutine at a time (one fleet
// worker, or the single-threaded control plane); the registry merges
// shards only after the workers have quiesced.
type Shard struct {
	counts [numCounters]int64
	hsum   [numHistograms]int64
	hbkt   [numHistograms][maxHistBuckets]int64
}

// Inc adds one to counter c.
func (s *Shard) Inc(c Counter) { s.counts[c]++ }

// Add adds n to counter c.
func (s *Shard) Add(c Counter, n int64) { s.counts[c] += n }

// Observe folds value v into histogram h.
func (s *Shard) Observe(h Histogram, v int64) {
	s.hsum[h] += v
	bounds := histogramBounds[h]
	for i, b := range bounds {
		if v <= b {
			s.hbkt[h][i]++
			return
		}
	}
	s.hbkt[h][len(bounds)]++
}

// ObserveSeconds folds a duration into a microsecond histogram,
// rounding half away from zero — a fixed rule, so the bucketing is a
// pure function of the value.
func (s *Shard) ObserveSeconds(h Histogram, seconds float64) {
	s.Observe(h, int64(math.Round(seconds*1e6)))
}

// Registry is the process-wide counter/histogram registry: a control
// shard for single-goroutine orchestration code plus one shard per
// fleet worker, merged on Snapshot. The zero value is not usable;
// call New.
type Registry struct {
	mu     sync.Mutex
	ctl    Shard
	shards []*Shard
}

// New builds an empty registry.
func New() *Registry { return &Registry{} }

// Ctl returns the control-plane shard: the one the single-threaded
// orchestration layers (admission, placement, autoscaling, scenario
// and capacity drivers) write to. It must not be handed to a fleet
// worker.
func (r *Registry) Ctl() *Shard { return &r.ctl }

// NewShard allocates and registers a fresh worker shard. Safe to call
// concurrently from worker startup; the returned shard itself belongs
// to the calling worker alone.
func (r *Registry) NewShard() *Shard {
	s := &Shard{}
	r.mu.Lock()
	r.shards = append(r.shards, s)
	r.mu.Unlock()
	return s
}

// Snapshot merges the control shard and every worker shard into one
// immutable view. The merge sums int64s, so the result is independent
// of shard count and registration order — the worker pool size can
// never leak into the output. Callers must have quiesced the workers
// first (fleet.Run returns only after its WaitGroup).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var snap Snapshot
	snap.merge(&r.ctl)
	for _, s := range r.shards {
		snap.merge(s)
	}
	return snap
}

// Snapshot is a merged, immutable registry view.
type Snapshot struct {
	counts [numCounters]int64
	hsum   [numHistograms]int64
	hbkt   [numHistograms][maxHistBuckets]int64
}

func (snap *Snapshot) merge(s *Shard) {
	for i := range snap.counts {
		snap.counts[i] += s.counts[i]
	}
	for i := range snap.hsum {
		snap.hsum[i] += s.hsum[i]
		for j := range snap.hbkt[i] {
			snap.hbkt[i][j] += s.hbkt[i][j]
		}
	}
}

// Counter returns the merged value of c.
func (snap Snapshot) Counter(c Counter) int64 { return snap.counts[c] }

// Sub returns the element-wise difference snap minus prev: the window
// delta between two snapshots of the same registry. Counters are
// monotone and histograms only accumulate, so for snapshots taken in
// order every field of the difference is nonnegative — this is what
// the time-series flight recorder records per window.
func (snap Snapshot) Sub(prev Snapshot) Snapshot {
	var d Snapshot
	for i := range d.counts {
		d.counts[i] = snap.counts[i] - prev.counts[i]
	}
	for i := range d.hsum {
		d.hsum[i] = snap.hsum[i] - prev.hsum[i]
		for j := range d.hbkt[i] {
			d.hbkt[i][j] = snap.hbkt[i][j] - prev.hbkt[i][j]
		}
	}
	return d
}

// EachCounter calls fn for every catalogue counter in fixed catalogue
// order with its merged value — zeros included, so consumers (the
// series recorder, the window-sum audit) see the whole catalogue.
func (snap Snapshot) EachCounter(fn func(c Counter, value int64)) {
	for c := Counter(0); c < numCounters; c++ {
		fn(c, snap.counts[c])
	}
}

// HistogramCount returns the merged observation count of h.
func (snap Snapshot) HistogramCount(h Histogram) int64 {
	var n int64
	for _, b := range snap.hbkt[h] {
		n += b
	}
	return n
}

// BucketLine is one cumulative histogram bucket of a Line, in the
// Prometheus convention: Count is the number of observations at or
// below LE, and the final bucket's LE is "+Inf".
type BucketLine struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// Line is one NDJSON record of the counters file: either a counter
// ("kind":"counter", Value = the count) or a histogram
// ("kind":"histogram", Value = total observations, plus Sum and the
// cumulative Buckets). Lines appear in fixed catalogue order with
// every catalogue entry present — including zeros — so two runs'
// counter files are byte-comparable with plain diff.
type Line struct {
	Kind    string       `json:"kind"`
	Name    string       `json:"name"`
	Value   int64        `json:"value"`
	Sum     int64        `json:"sum,omitempty"`
	Buckets []BucketLine `json:"buckets,omitempty"`
}

// Lines renders the snapshot as its NDJSON records, catalogue order.
func (snap Snapshot) Lines() []Line {
	out := make([]Line, 0, int(numCounters)+int(numHistograms))
	for c := Counter(0); c < numCounters; c++ {
		out = append(out, Line{Kind: "counter", Name: c.String(), Value: snap.counts[c]})
	}
	for h := Histogram(0); h < numHistograms; h++ {
		bounds := histogramBounds[h]
		buckets := make([]BucketLine, 0, len(bounds)+1)
		var cum int64
		for i, b := range bounds {
			cum += snap.hbkt[h][i]
			buckets = append(buckets, BucketLine{LE: formatInt(b), Count: cum})
		}
		cum += snap.hbkt[h][len(bounds)]
		buckets = append(buckets, BucketLine{LE: "+Inf", Count: cum})
		out = append(out, Line{
			Kind: "histogram", Name: h.String(),
			Value: cum, Sum: snap.hsum[h], Buckets: buckets,
		})
	}
	return out
}

// formatInt is strconv.FormatInt without the import — bounds are
// small positive constants.
func formatInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
