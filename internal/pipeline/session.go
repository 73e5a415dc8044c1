package pipeline

import (
	"math"
	"math/rand"
	"sync"

	"qvr/internal/codec"
	"qvr/internal/energy"
	"qvr/internal/foveation"
	"qvr/internal/gpu"
	"qvr/internal/liwc"
	"qvr/internal/motion"
	"qvr/internal/netsim"
	"qvr/internal/randpool"
	"qvr/internal/scene"
	"qvr/internal/sim"
	"qvr/internal/uca"
)

// session owns one simulation run's state: the event engine, the
// hardware resources, the user/scene models, and the controllers.
// Every component is held by value and rewound in place by reset, so a
// reused session keeps its engine and resource pools, its bound
// callbacks, the tracker's sample window and the LIWC table overlay.
type session struct {
	cfg  Config
	disp foveation.Display

	eng    sim.Engine
	cpu    sim.Resource // application CPU
	gpuRes sim.Resource // mobile GPU (render + baseline composition)
	ucaRes sim.Resource // UCA units (QVR only)
	decRes sim.Resource // video decoder
	netRes sim.Resource // downlink
	remRes sim.Resource // remote render cluster

	gen     motion.Generator
	tracker motion.Tracker
	st      scene.State
	part    foveation.Partitioner
	link    netsim.Link
	ctrl    liwc.Controller         // DFR and QVR only
	sw      liwc.SoftwareController // QVRSoftware only
	missRng *rand.Rand

	geom    liwcGeom
	cpuTime float64 // per-frame CPU stage cost, fixed per config

	// Frames are fully serialized (one in flight), so one frameState
	// is reused for the whole run and every design's per-frame
	// pipeline callbacks are bound once, at the first reset, instead
	// of allocating closures every frame.
	cbFrameStart, cbDispatch, cbFrameDone, cbATW          func()
	cbCollabPeriphery, cbCollabRendered, cbCollabStreamed func()
	cbCollabNetDone, cbCollabDecoded, cbCollabBranchDone  func()
	cbFetchGranted, cbFetchRendered, cbFetchEncoded       func()
	cbFetchSent, cbFetchDecoded                           func()
	cbStaticRefetch, cbStaticCompose                      func()
	cbStaticComposed, cbStaticJoin                        func()

	progress
}

// progress is a run's mutable bookkeeping. reset zeroes it whole, so
// a field added here can never leak from one run into the next.
type progress struct {
	total     int
	issued    int
	completed int
	inFlight  int

	prevSample    motion.Sample
	havePrev      bool
	prevLocalMeas float64
	prevComplete  float64
	handoffPaid   bool

	// sink receives each measured frame as it completes. Run attaches
	// a private recorder (materializing Result.Frames, the historical
	// behaviour); RunSink attaches the caller's.
	sink FrameSink

	frame  frameState
	layers [2]int // scratch for the per-layer parallel streams
}

// recorder is the materializing FrameSink behind Session.Run: the
// exported equivalent for external callers is framesink.RecordSink.
type recorder struct{ frames []FrameRecord }

func (r *recorder) Observe(f FrameRecord) { r.frames = append(r.frames, f) }

// Run simulates cfg and returns the measured result. It is shorthand
// for NewSession(cfg).Run().
func Run(cfg Config) Result {
	return NewSession(cfg).Run()
}

// Session is one simulation run, ready to execute. Sessions are
// independent of each other: every piece of mutable state (event
// engine, resources, RNGs, controllers) is owned by the session, and
// all package-level state in the simulator's dependency tree is
// immutable catalog data — so distinct Sessions may Run concurrently
// from different goroutines. A single Session is NOT safe for
// concurrent use.
//
// A Session runs once per Reset. Reset rewinds it in place for a new
// config, keeping everything the previous run warmed up, so a worker
// that simulates many sessions borrows one Session (GetSession) and
// resets it for each. The zero value is an empty session; Reset it
// before running. A Session must not be copied after its first Reset.
type Session struct {
	s session
}

// MeasuredFrames is the number of frames a session built from this
// config will measure, after zero-value normalization — the single
// source of truth callers (the fleet's sample buffer sizing) use to
// pre-size per-frame state.
func (cfg Config) MeasuredFrames() int {
	if cfg.Frames <= 0 {
		return 300
	}
	return cfg.Frames
}

// normalize fills zero-valued Config fields with evaluation defaults.
func normalize(cfg Config) Config {
	cfg.Frames = cfg.MeasuredFrames()
	if cfg.GPU.FrequencyMHz == 0 {
		cfg.GPU = gpu.MobileDefault()
	}
	if cfg.Remote.GPUs == 0 {
		cfg.Remote = gpu.DefaultRemote()
	}
	if cfg.Network.BandwidthBps == 0 {
		cfg.Network = netsim.WiFi
	}
	if cfg.Codec.BitsPerPixel == 0 {
		cfg.Codec = codec.DefaultSizeModel
	}
	if cfg.UCA.Units == 0 {
		cfg.UCA = uca.Default()
	}
	if cfg.LIWC.BudgetSeconds == 0 {
		cfg.LIWC = liwc.DefaultConfig()
	}
	if cfg.Profile.Name == "" {
		cfg.Profile = motion.Normal
	}
	return cfg
}

// NewSession builds a runnable session from cfg, applying the
// evaluation defaults to zero-valued fields. It is a zero Session
// plus Reset.
func NewSession(cfg Config) *Session {
	p := &Session{}
	p.Reset(cfg)
	return p
}

// sessions is the shared warm-session pool. A Session that has run
// keeps its event engine, resource queues and bound callbacks, so a
// borrower's Reset reuses them instead of warming a new Session from
// scratch: fleet workers, the experiment pool and the surrogate's
// exact runs all borrow from here.
var sessions sync.Pool

// GetSession borrows a Session from the shared pool: one that has run
// before when the pool has one, else an empty one. Reset it before
// running, and hand it back with PutSession when done.
func GetSession() *Session {
	if p, ok := sessions.Get().(*Session); ok {
		return p
	}
	return new(Session)
}

// PutSession returns p to the shared pool. It drops p's reference to
// its last sink, so a pooled Session keeps nothing of its borrower's
// alive. The caller must not use p afterwards, nor put it twice.
func PutSession(p *Session) {
	p.s.sink = nil
	sessions.Put(p)
}

// Reset re-initializes the session in place for cfg, exactly as
// NewSession(cfg) builds it. The random sources of a session that
// never ran go back to the pool before fresh ones are taken, and every
// stream is re-seeded, so a reused session's frames are bit-identical
// to a new one's.
func (p *Session) Reset(cfg Config) { p.s.reset(cfg) }

func (s *session) reset(cfg Config) {
	cfg = normalize(cfg)
	if s.cbDispatch == nil {
		s.bind()
	}
	s.cfg = cfg
	s.disp = foveation.Display{
		Width: cfg.App.Width, Height: cfg.App.Height,
		FovH: foveation.DefaultDisplay.FovH, FovV: foveation.DefaultDisplay.FovV,
	}
	s.progress = progress{total: cfg.Frames + cfg.Warmup}

	s.eng.Reset()
	s.cpu.Reset(&s.eng, "cpu", 1)
	s.gpuRes.Reset(&s.eng, "gpu", 1)
	s.ucaRes.Reset(&s.eng, "uca", 1) // units folded into FrameSeconds
	s.decRes.Reset(&s.eng, "decoder", 1)
	s.netRes.Reset(&s.eng, "net", 1)
	s.remRes.Reset(&s.eng, "remote", 1)

	s.st.Reset(cfg.App)
	s.link.Reset(cfg.Network, cfg.Seed*7+3)
	randpool.Put(s.missRng)
	s.missRng = randpool.Get(cfg.Seed*13 + 5)
	s.part = *foveation.NewPartitioner(s.disp)
	s.geom = liwcGeom{part: &s.part}
	s.gen.Reset(cfg.Profile, cfg.Seed)
	s.tracker.Reset(&s.gen, motion.DefaultTrackerHz, SensorTransmitSeconds)
	if cfg.GazeNoiseDeg > 0 {
		s.tracker.SetGazeNoise(cfg.GazeNoiseDeg, cfg.Seed*31+11)
	}
	if cfg.OutageDurationSeconds > 0 {
		s.link.InjectOutage(cfg.OutageStartSeconds, cfg.OutageDurationSeconds)
	}

	switch cfg.Design {
	case DFR, QVR:
		s.ctrl.Reset(cfg.LIWC)
	case QVRSoftware:
		s.sw.Reset(cfg.LIWC.BudgetSeconds, cfg.LIWC.TargetFloor, cfg.LIWC.InitialE1)
	}

	// The CPU stage cost is a pure function of the config; hoisting it
	// (and binding the frame callbacks once) keeps startFrame off the
	// allocator.
	s.cpuTime = AppLogicSeconds + LocalSetupSeconds
	if cfg.Design == QVRSoftware {
		s.cpuTime += liwc.SoftwareControlOverheadSeconds
	}
	if cfg.ControllerLatencySeconds > 0 && (cfg.Design == DFR || cfg.Design == QVR) {
		s.cpuTime += cfg.ControllerLatencySeconds
	}
}

// bind makes the per-frame callbacks. Each method value allocates
// once, here, and lives as long as the session.
func (s *session) bind() {
	s.cbFrameStart = s.frameGranted
	s.cbDispatch = s.dispatch
	s.cbFrameDone = s.frameDone
	s.cbATW = s.atw
	s.cbCollabPeriphery = s.collabPeriphery
	s.cbCollabRendered = s.collabRendered
	s.cbCollabStreamed = s.collabStreamed
	s.cbCollabNetDone = s.collabNetDone
	s.cbCollabDecoded = s.collabDecoded
	s.cbCollabBranchDone = s.collabBranchDone
	s.cbFetchGranted = s.fetchGranted
	s.cbFetchRendered = s.fetchRendered
	s.cbFetchEncoded = s.fetchEncoded
	s.cbFetchSent = s.fetchSent
	s.cbFetchDecoded = s.fetchDecoded
	s.cbStaticRefetch = s.staticRefetch
	s.cbStaticCompose = s.staticCompose
	s.cbStaticComposed = s.staticComposed
	s.cbStaticJoin = s.staticJoin
}

// Run executes the simulation to completion and returns the measured
// result with Result.Frames materialized — the full-record path that
// qvr-sim and the experiment harness consume.
func (p *Session) Run() Result {
	var rec recorder
	res := p.RunSink(&rec)
	res.Frames = rec.frames
	return res
}

// RunSink executes the simulation to completion, streaming each
// measured frame to sink in frame-index order (frames are fully
// serialized, so completion order is index order). The returned
// Result carries the normalized Config and display geometry only;
// Frames stays nil — whatever state the caller wants to keep is
// whatever the sink retained, which is how a large fleet avoids
// materializing sessions x frames records.
func (p *Session) RunSink(sink FrameSink) Result {
	s := &p.s
	s.sink = sink
	s.tryIssue()
	s.eng.Run()
	// Every frame has completed, so the random sources are done: hand
	// them to the next session. Release nils each one, which keeps a
	// second RunSink from returning a source twice.
	s.link.Release()
	s.tracker.Release()
	randpool.Put(s.missRng)
	s.missRng = nil
	return Result{Config: s.cfg, Display: s.disp}
}

// tryIssue starts the next frame if none is in flight. Frames are
// fully serialized so that each record's completion time is the true
// per-frame critical path (the paper's Fig. 3 stacked-bar latency);
// steady-state throughput is computed separately from per-stage busy
// times via the paper's FPS = min(1/T_GPU, 1/T_network) formula.
func (s *session) tryIssue() {
	if s.issued < s.total && s.inFlight == 0 {
		idx := s.issued
		s.issued++
		s.inFlight++
		s.startFrame(idx)
	}
}

// frameState tracks one in-flight frame. With frames fully
// serialized, the session owns a single instance reset per frame.
type frameState struct {
	idx    int
	rec    FrameRecord
	sample motion.Sample
	stats  scene.FrameStats
	// join counts outstanding parallel branches before composition.
	join int
	// peripheryPixels is the transmitted periphery pixel count (both
	// eyes), kept for controller feedback.
	peripheryPixels float64
	// part is the frame's foveation partition and chainStart the
	// remote chain's start time, carried across the periphery stages.
	part       foveation.Partition
	chainStart float64
	// motionN is the codec-normalized motion magnitude, fixed at
	// dispatch.
	motionN float64
	// pixels and bytes size a full-frame fetch (remote-only and
	// static), and fetched is the callback that runs once it decodes.
	pixels, bytes int
	fetched       func()
	// displayAt and staleness are the static design's composition
	// time and prefetch age, read when its branches join.
	displayAt, staleness float64
}

// startFrame begins frame idx with the CPU stage, then dispatches to
// the design-specific body.
func (s *session) startFrame(idx int) {
	s.frame = frameState{idx: idx}
	s.frame.rec.Index = idx
	s.cpu.RequestWithStart(sim.Time(s.cpuTime), s.cbFrameStart, s.cbDispatch)
}

// frameGranted runs when the CPU grants the frame's setup stage: this
// is the frame's start, so sample the tracker.
func (s *session) frameGranted() {
	now := s.eng.Now().Seconds()
	f := &s.frame
	f.rec.StartSeconds = now
	f.sample = s.tracker.SampleAt(now)
	f.stats = s.st.Frame(f.sample)
	f.rec.CPUSeconds = s.cpuTime
}

// dispatch routes to the design body after the CPU stage.
func (s *session) dispatch() {
	f := &s.frame
	switch s.cfg.Design {
	case LocalOnly:
		s.frameLocalOnly(f)
	case RemoteOnly:
		s.frameRemoteOnly(f)
	case StaticCollab:
		s.frameStatic(f)
	default:
		s.frameCollaborative(f)
	}
}

// frameDone retires the frame as displayable now.
func (s *session) frameDone() {
	s.finish(&s.frame, s.eng.Now().Seconds(), 0)
}

// finish records the frame and advances bookkeeping. composeDone is
// the moment the displayable frame was ready; sampleTime the sensor
// timestamp it was rendered from; extraMTP adds design-specific
// staleness (static prefetch age).
func (s *session) finish(f *frameState, composeDone, extraMTP float64) {
	f.rec.CompleteSeconds = composeDone
	// Motion-to-photon: the pose pipeline contributes its 2 ms sensor
	// transmission (modern runtimes predict the pose forward to frame
	// start, so raw sample age does not accumulate), then the frame's
	// critical path, then the display scan-out.
	f.rec.MTPSeconds = SensorTransmitSeconds + (composeDone - f.rec.StartSeconds) +
		DisplayScanoutSeconds + extraMTP
	f.rec.StageFPS = s.stageFPS(&f.rec)

	// The steady-state frame interval under cross-frame pipelining is
	// the busiest stage time, not the serialized critical path.
	interval := 1 / TargetFPS
	if f.rec.StageFPS > 0 {
		interval = 1 / f.rec.StageFPS
	}
	s.prevComplete = composeDone

	// Energy accounting.
	p := energy.FrameParams{
		FreqMHz:        s.cfg.GPU.FrequencyMHz,
		GPUBusySeconds: f.rec.LocalRenderSeconds,
		FrameSeconds:   interval,
		DecodeSeconds:  f.rec.DecodeSeconds,
	}
	switch s.cfg.Design {
	case LocalOnly:
		p.GPUBusySeconds += f.rec.ComposeSeconds // ATW on GPU
	case QVR:
		p.UCAUnits = s.cfg.UCA.Units
		p.UCASeconds = f.rec.ComposeSeconds
		p.LIWCActive = true
	case DFR:
		p.GPUBusySeconds += f.rec.ComposeSeconds
		p.LIWCActive = true
	default:
		p.GPUBusySeconds += f.rec.ComposeSeconds
	}
	if f.rec.TransferSeconds > 0 || f.rec.RequestSeconds > 0 {
		p.Radio = energy.RadioByCondition(s.cfg.Network.Name)
		// The radio burns active power only while bits are on the air.
		p.RadioSeconds = f.rec.AirtimeSeconds + 0.0005
	}
	f.rec.Energy = energy.Frame(p)

	if f.idx >= s.cfg.Warmup {
		s.sink.Observe(f.rec)
	}

	// Controller feedback.
	switch s.cfg.Design {
	case DFR, QVR:
		// The balance signal counts only the streamed portion of the
		// remote side: render, encode and transfer pipeline with each
		// other (Section 2.3), so transmission dominates.
		s.ctrl.Observe(liwc.Measurement{
			LocalSeconds:       f.rec.LocalRenderSeconds,
			RemoteChainSeconds: f.rec.TransferSeconds + f.rec.DecodeSeconds,
			Triangles:          f.stats.VisibleTriangles,
			FoveaShare:         f.rec.FoveaShare,
			PeripheryPixels:    int(peripheryPixelsOf(f)),
			PeripheryBytes:     f.rec.BytesSent,
			PrevLocalSeconds:   s.prevLocalMeas,
		})
	case QVRSoftware:
		s.sw.Observe(f.rec.LocalRenderSeconds, f.rec.TransferSeconds+f.rec.DecodeSeconds)
	}
	s.prevLocalMeas = f.rec.LocalRenderSeconds
	s.prevSample = f.sample
	s.havePrev = true

	s.inFlight--
	s.completed++
	s.tryIssue()
}

// peripheryPixelsOf reconstructs the transmitted periphery pixel count
// from the stored reduction metric.
func peripheryPixelsOf(f *frameState) float64 {
	return f.peripheryPixels
}

// stageFPS evaluates the paper's pipelined frame-rate formula for one
// frame: the sustainable rate is set by the busiest resource.
func (s *session) stageFPS(rec *FrameRecord) float64 {
	gpuBusy := rec.LocalRenderSeconds
	ucaBusy := 0.0
	if s.cfg.Design == QVR {
		ucaBusy = rec.ComposeSeconds
	} else {
		gpuBusy += rec.ComposeSeconds
	}
	busiest := math.Max(rec.CPUSeconds, gpuBusy)
	if s.cfg.Design == QVRSoftware {
		// The software control path serializes with rendering: CL must
		// wait for the previous frame's results (Fig. 4-B), so CPU and
		// GPU time cannot overlap across frames.
		busiest = rec.CPUSeconds + gpuBusy
	}
	busiest = math.Max(busiest, ucaBusy)
	busiest = math.Max(busiest, rec.AirtimeSeconds)
	busiest = math.Max(busiest, rec.RemoteRenderSeconds+rec.EncodeSeconds)
	busiest = math.Max(busiest, rec.DecodeSeconds)
	if s.cfg.Design == StaticCollab && rec.PredictionMiss {
		// A prefetch miss drains the pipeline: the synchronous refetch
		// chain bounds this frame's effective rate.
		busiest = math.Max(busiest, rec.RemoteChainSeconds+rec.ComposeSeconds)
	}
	if busiest <= 0 {
		return 0
	}
	return 1 / busiest
}

// requestSeconds is the cost of issuing frame f's remote render
// request: the uplink control packet, any fleet-level admission
// queueing at the shared remote cluster, half a round trip on the
// wide-area leg to the serving edge cluster (zero when co-located),
// and — exactly once, on the first measured frame that actually goes
// remote — the session migration handoff stall the edge grid charged
// this session. (Not every measured frame issues a request: a fully
// local collaborative frame skips the remote chain, so the charge
// waits for the first frame that does.)
func (s *session) requestSeconds(f *frameState) float64 {
	t := s.link.RequestSeconds() + s.cfg.RemoteQueueSeconds + s.cfg.RemotePath.RTTSeconds/2
	if s.cfg.RemoteHandoffSeconds > 0 && !s.handoffPaid && f.idx >= s.cfg.Warmup {
		t += s.cfg.RemoteHandoffSeconds
		s.handoffPaid = true
	}
	return t
}

// transferSeconds is the downlink time for one payload across the
// access link plus the wide-area leg from the serving edge cluster.
// The two hops pipeline, so serialization is the slower of the two
// and the WAN contributes its propagation on top: completion =
// max(access transfer, WAN serialization) + WAN RTT/2. A zero-valued
// RemotePath reduces to the access link alone.
func (s *session) transferSeconds(bytes int, now float64) float64 {
	return s.wanLeg(s.link.TransferSeconds(bytes, now), bytes)
}

// parallelTransferSeconds is transferSeconds for the per-layer
// parallel streams of Fig. 7.
func (s *session) parallelTransferSeconds(layerBytes []int, now float64) float64 {
	total := 0
	for _, b := range layerBytes {
		if b > 0 {
			total += b
		}
	}
	return s.wanLeg(s.link.ParallelTransferSeconds(layerBytes, now), total)
}

// wanLeg folds the wide-area path into an access-link transfer time.
func (s *session) wanLeg(access float64, bytes int) float64 {
	p := s.cfg.RemotePath
	if p.RTTSeconds <= 0 && p.BandwidthBps <= 0 {
		return access
	}
	t := access
	if p.BandwidthBps > 0 && bytes > 0 {
		eff := p.Efficiency
		if eff <= 0 {
			eff = 1
		}
		if serial := float64(bytes*8) / (p.BandwidthBps * eff); serial > t {
			t = serial
		}
	}
	return t + p.RTTSeconds/2
}

// motionDelta returns the frame-to-frame motion delta (zero for the
// first frame).
func (s *session) motionDelta(f *frameState) motion.Delta {
	if !s.havePrev {
		return motion.Delta{}
	}
	return motion.Sub(s.prevSample, f.sample)
}

// motionNorm maps a delta to the codec's normalized motion magnitude.
func motionNorm(d motion.Delta) float64 {
	m := d.Magnitude() / 10
	if m > 2 {
		m = 2
	}
	return m
}

// boundaryFraction estimates the share of 32x32 UCA tiles straddling
// the e1/e2 layer boundaries: boundary circumference over tile grid.
func (s *session) boundaryFraction(e1, e2 float64) float64 {
	ppd := s.disp.PixelsPerDegree()
	circPx := 2 * math.Pi * (e1 + e2) * ppd
	boundaryTiles := circPx / float64(uca.TilePixels)
	totalTiles := float64(s.disp.Width*s.disp.Height) / float64(uca.TilePixels*uca.TilePixels)
	frac := boundaryTiles / totalTiles
	if frac > 0.6 {
		frac = 0.6
	}
	if frac < 0 {
		frac = 0
	}
	return frac
}
