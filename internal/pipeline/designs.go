package pipeline

import (
	"math"

	"qvr/internal/foveation"
	"qvr/internal/gpu"
	"qvr/internal/sim"
	"qvr/internal/uca"
)

// frameLocalOnly renders the whole frame on the mobile GPU, then runs
// ATW on the GPU: the commercial mobile VR baseline. Every design's
// stages are prebound session callbacks reading the reused frameState,
// so no design allocates per frame; local-only is also the fleet's
// failover mode, so it runs at scale.
func (s *session) frameLocalOnly(f *frameState) {
	render := s.cfg.GPU.FullFrameSeconds(s.cfg.App, f.stats)
	f.rec.LocalRenderSeconds = render
	f.rec.FoveaShare = 1
	s.gpuRes.Request(sim.Time(render), s.cbATW)
}

// atw runs asynchronous time warp on the GPU, then retires the frame.
func (s *session) atw() {
	atw := uca.GPUCompositionSeconds(s.disp.Width, s.disp.Height, s.cfg.GPU.FrequencyMHz, false)
	s.frame.rec.ComposeSeconds = atw
	s.gpuRes.Request(sim.Time(atw), s.cbFrameDone)
}

// frameRemoteOnly offloads the whole frame to the remote cluster and
// streams it back: the cloud-gaming baseline.
func (s *session) frameRemoteOnly(f *frameState) {
	f.chainStart = s.eng.Now().Seconds()
	f.pixels = s.cfg.App.PixelsPerFrame()
	f.bytes = s.cfg.Codec.FrameBytes(f.pixels, f.stats.Entropy, 1, motionNorm(s.motionDelta(f)))
	f.rec.BytesSent = f.bytes
	f.rec.AirtimeSeconds = s.cfg.Network.AirtimeSeconds(f.bytes)
	f.fetched = s.cbATW
	s.fetch(f)
}

// fetch renders, encodes, streams and decodes one full frame of
// f.pixels pixels and f.bytes bytes on the remote side, then runs
// f.fetched. The chain's span is measured from f.chainStart.
func (s *session) fetch(f *frameState) {
	req := s.requestSeconds(f)
	f.rec.RequestSeconds = req
	s.eng.Schedule(sim.Time(req), s.cbFetchGranted)
}

// fetchGranted: the request reached the remote cluster.
func (s *session) fetchGranted() {
	f := &s.frame
	render := s.cfg.Remote.RenderSeconds(gpu.FrameWorkload(s.cfg.App, f.stats, 1, 1))
	f.rec.RemoteRenderSeconds = render
	s.remRes.Request(sim.Time(render), s.cbFetchRendered)
}

// fetchRendered: the remote render finished; encoding follows.
func (s *session) fetchRendered() {
	enc := s.cfg.Codec.EncodeSeconds(s.frame.pixels)
	s.frame.rec.EncodeSeconds = enc
	s.eng.Schedule(sim.Time(enc), s.cbFetchEncoded)
}

// fetchEncoded: the frame hits the wire.
func (s *session) fetchEncoded() {
	f := &s.frame
	tx := s.transferSeconds(f.bytes, s.eng.Now().Seconds())
	f.rec.TransferSeconds = tx
	s.netRes.Request(sim.Time(tx), s.cbFetchSent)
}

// fetchSent: the downlink drained; decoding follows.
func (s *session) fetchSent() {
	dec := s.cfg.Codec.DecodeSeconds(s.frame.pixels)
	s.frame.rec.DecodeSeconds = dec
	s.decRes.Request(sim.Time(dec), s.cbFetchDecoded)
}

// fetchDecoded closes the remote chain.
func (s *session) fetchDecoded() {
	f := &s.frame
	f.rec.RemoteChainSeconds = s.eng.Now().Seconds() - f.chainStart
	f.fetched()
}

// frameStatic is the state-of-the-art static collaboration: the
// pre-defined interactive objects render locally while the full
// background is prefetched from the remote server against a predicted
// pose. On a prediction hit the background is already resident (it
// arrived during the previous frame), so composition only waits for
// the local render — but the displayed background is one frame stale.
// On a miss the frame must fetch synchronously.
func (s *session) frameStatic(f *frameState) {
	app := s.cfg.App
	delta := s.motionDelta(f)

	// Miss probability grows with user motion: the prefetcher must
	// predict ~3 frames of motion (Section 2.3).
	pMiss := 0.08 + 0.05*motionNorm(delta)
	if pMiss > 0.45 {
		pMiss = 0.45
	}
	miss := s.missRng.Float64() < pMiss
	f.rec.PredictionMiss = miss

	local := s.cfg.GPU.RenderSeconds(gpu.FrameWorkload(app, f.stats, f.stats.InteractiveShare, 1))
	f.rec.LocalRenderSeconds = local
	f.rec.FoveaShare = f.stats.InteractiveShare

	f.chainStart = s.eng.Now().Seconds()
	f.pixels = app.PixelsPerFrame()
	// Backgrounds carry depth maps for composition (Section 2.3);
	// depth planes compress poorly, inflating the payload.
	f.bytes = int(float64(s.cfg.Codec.FrameBytes(f.pixels, f.stats.Entropy, 1, motionNorm(delta))) * 1.3)
	f.rec.BytesSent = f.bytes
	f.rec.AirtimeSeconds = s.cfg.Network.AirtimeSeconds(f.bytes)

	if miss {
		// Miss: the frame waits on a correction round trip plus a
		// synchronous fetch before it can compose.
		f.join = 1
		s.gpuRes.Request(sim.Time(local), nil)
		s.eng.Schedule(sim.Time(s.cfg.Network.RTTSeconds), s.cbStaticRefetch)
		return
	}
	// Hit: the background prefetched last frame is already resident.
	// Composition follows the local render; the fetch for the next
	// frame proceeds in parallel, and the frame is not retired until
	// it lands (it paces the steady state).
	f.join = 2
	s.gpuRes.Request(sim.Time(local), s.cbStaticCompose)
	f.fetched = s.cbStaticJoin
	s.fetch(f)
}

// staticRefetch: a missed frame's correction round trip is over; the
// synchronous fetch starts, and composition waits for it.
func (s *session) staticRefetch() {
	s.frame.fetched = s.cbStaticCompose
	s.fetch(&s.frame)
}

// staticCompose composes the background and the local objects on the
// GPU. Composition with collision detection and embedding is heavier
// than plain foveated blending (Section 1: "high composition overhead
// ... more complex collision detection and embedding methods").
func (s *session) staticCompose() {
	comp := uca.GPUCompositionSeconds(s.disp.Width, s.disp.Height, s.cfg.GPU.FrequencyMHz, true) * 1.3
	s.frame.rec.ComposeSeconds = comp
	s.gpuRes.Request(sim.Time(comp), s.cbStaticComposed)
}

// staticComposed: the frame is displayable. On a hit, the displayed
// background was predicted roughly one fetch chain ago - charge that
// age to motion-to-photon.
func (s *session) staticComposed() {
	f := &s.frame
	f.displayAt = s.eng.Now().Seconds()
	if !f.rec.PredictionMiss {
		f.staleness = f.rec.RemoteChainSeconds
		if f.staleness == 0 {
			f.staleness = 1 / TargetFPS
		}
	}
	s.staticJoin()
}

// staticJoin retires the frame once all of its branches have landed.
func (s *session) staticJoin() {
	f := &s.frame
	f.join--
	if f.join == 0 {
		s.finish(f, f.displayAt, f.staleness)
	}
}

// liwcGeom adapts the foveation partitioner to the LIWC's Geometry
// interface for the current frame's gaze and content density. The
// session owns one instance (refreshed per frame) and hands out its
// pointer, so the interface conversion never allocates.
//
// Every disc area it needs goes through its one AreaTable, keyed on
// the frame's gaze: the LIWC's partitions at the current and the
// planned e1, both fovea shares, and the frame's own partition read
// each whole-degree radius at most once per frame. It also remembers
// the last successful partition: the LIWC sizes the periphery at the
// e1 it plans, and the frame then partitions at that same e1 and gaze,
// so the second scan is answered from the memo.
type liwcGeom struct {
	part    *foveation.Partitioner
	gx, gy  float64
	density float64
	areas   foveation.AreaTable

	memoOK    bool
	memoKey   [3]uint64 // Float64bits of (e1, gx, gy)
	memoValue foveation.Partition
}

func (g *liwcGeom) FoveaShare(e1 float64) float64 {
	e1 = foveation.ClampE1(e1)
	share := g.areas.Fraction(g.part.Display, e1, g.gx, g.gy) * g.density
	if share > 1 {
		share = 1
	}
	return share
}

func (g *liwcGeom) PeripheryPixels(e1 float64) int {
	p, err := g.partition(foveation.ClampE1(e1))
	if err != nil {
		return 0
	}
	return 2 * p.PeripheryPixels // both eyes
}

// partition returns g.part.Partition(e1, g.gx, g.gy), reusing the
// previous result when the key is bit-for-bit the same. Partition is
// pure, so the memo is exact; errors are returned but never cached.
func (g *liwcGeom) partition(e1 float64) (foveation.Partition, error) {
	key := [3]uint64{math.Float64bits(e1), math.Float64bits(g.gx), math.Float64bits(g.gy)}
	if g.memoOK && key == g.memoKey {
		return g.memoValue, nil
	}
	p, err := g.part.PartitionWith(&g.areas, e1, g.gx, g.gy)
	if err != nil {
		return p, err
	}
	g.memoOK, g.memoKey, g.memoValue = true, key, p
	return p, nil
}

// peripheryQuality is the encode quality for the periphery layers: the
// resolution reduction is the primary mechanism, with a mild quality
// derate on top (the layers tolerate it perceptually).
const peripheryQuality = 0.85

// ucaTailFraction is the share of UCA work left on the critical path
// after its asynchronous tile processing overlaps the render.
const ucaTailFraction = 0.3

// stageTail is the unpipelined fraction of encode/decode left on the
// collaborative chain's critical path under per-layer streaming.
const stageTail = 0.25

// frameCollaborative runs the foveated collaborative designs:
// FFR (fixed e1), DFR (LIWC, GPU composition), QVRSoftware (software
// controller, GPU composition), QVR (LIWC + UCA). The stage chain is
// expressed as prebound session callbacks reading the reused
// frameState — this is the fleet's hot path, and it allocates nothing
// per frame.
func (s *session) frameCollaborative(f *frameState) {
	app := s.cfg.App
	delta := s.motionDelta(f)
	f.motionN = motionNorm(delta)
	s.geom.gx, s.geom.gy, s.geom.density = f.sample.Gaze.X, f.sample.Gaze.Y, f.stats.GazeDensity

	// Eccentricity selection.
	var e1 float64
	switch s.cfg.Design {
	case FFR:
		e1 = 5
	case DFR, QVR:
		d := s.ctrl.Plan(delta, f.stats.VisibleTriangles, &s.geom, s.link.ObservedThroughputBps())
		e1 = d.E1
	case QVRSoftware:
		e1 = s.sw.Plan()
	}
	part, err := s.geom.partition(e1)
	if err != nil {
		// Out-of-range e1 cannot happen via the controllers; guard by
		// falling back to the classic fovea.
		part, _ = s.geom.partition(5)
		e1 = 5
	}
	f.part = part
	f.rec.E1 = e1

	share := s.geom.FoveaShare(e1)
	f.rec.FoveaShare = share

	// Local fovea workload: share of the scene's triangles, fovea-area
	// pixels at native resolution.
	foveaPixels := part.FoveaAreaFraction * float64(app.PixelsPerFrame())
	overdraw := app.Overdraw * (0.7 + 0.3*f.stats.ViewComplexity)
	wl := gpu.Workload{
		Triangles:    float64(f.stats.VisibleTriangles) * share,
		Fragments:    foveaPixels * overdraw,
		ShadingCost:  app.ShadingCost,
		BytesTouched: foveaPixels * 10,
	}
	local := s.cfg.GPU.RenderSeconds(wl)
	f.rec.LocalRenderSeconds = local

	periphery := 2 * part.PeripheryPixels // both eyes
	f.peripheryPixels = float64(periphery)
	f.rec.ResolutionReduction = resolutionReduction(s.disp, part)

	f.join = 1
	if periphery > 0 {
		f.join = 2
	}

	// Branch 1: local fovea render.
	s.gpuRes.Request(sim.Time(local), s.cbCollabBranchDone)

	// Branch 2: remote periphery chain (skipped when fully local).
	if periphery == 0 {
		return
	}
	f.chainStart = s.eng.Now().Seconds()
	req := s.requestSeconds(f)
	f.rec.RequestSeconds = req
	s.eng.Schedule(sim.Time(req), s.cbCollabPeriphery)
}

// collabPeriphery runs when the periphery request reaches the remote
// cluster: it sizes the remote render and the per-layer streams.
func (s *session) collabPeriphery() {
	f := &s.frame
	app := s.cfg.App
	part := f.part
	midFrac := s.geom.areas.Fraction(s.disp, part.E2, f.sample.Gaze.X, f.sample.Gaze.Y) - part.FoveaAreaFraction
	if midFrac < 0 {
		midFrac = 0
	}
	outFrac := 1 - part.FoveaAreaFraction - midFrac
	if outFrac < 0 {
		outFrac = 0
	}
	render := s.cfg.Remote.PeripherySeconds(app, f.stats, midFrac, part.Middle.Scale, outFrac, part.Outer.Scale)
	f.rec.RemoteRenderSeconds = render
	// Per-layer streaming (Fig. 7) pipelines rendering, encoding,
	// transfer and decode: encoded chunks hit the wire while later
	// channels still render, and the decoder consumes chunks as
	// they arrive. The chain's serialized span is the longest
	// stage plus short entry/exit tails of the others.
	periphery := 2 * part.PeripheryPixels
	midBytes := s.cfg.Codec.FrameBytes(2*part.Middle.Pixels, f.stats.Entropy, peripheryQuality, f.motionN)
	outBytes := s.cfg.Codec.FrameBytes(2*part.Outer.Pixels, f.stats.Entropy, peripheryQuality, f.motionN)
	f.rec.BytesSent = midBytes + outBytes
	f.rec.AirtimeSeconds = s.cfg.Network.AirtimeSeconds(midBytes + outBytes)
	f.rec.EncodeSeconds = s.cfg.Codec.EncodeSeconds(periphery)
	f.rec.DecodeSeconds = s.cfg.Codec.DecodeSeconds(periphery)
	s.layers[0], s.layers[1] = midBytes, outBytes
	f.rec.TransferSeconds = s.parallelTransferSeconds(s.layers[:], s.eng.Now().Seconds())

	s.remRes.Request(sim.Time(render), s.cbCollabRendered)
}

// collabRendered: the remote render finished; the encode tail follows.
func (s *session) collabRendered() {
	s.eng.Schedule(sim.Time(s.frame.rec.EncodeSeconds*stageTail), s.cbCollabStreamed)
}

// collabStreamed: the encoded layers hit the wire. Transfer fully
// hidden under the render costs nothing extra on the chain.
func (s *session) collabStreamed() {
	f := &s.frame
	streamed := f.rec.TransferSeconds
	if f.rec.RemoteRenderSeconds > streamed {
		streamed = 0 // transfer fully hidden under render
	}
	s.netRes.Request(sim.Time(streamed), s.cbCollabNetDone)
}

// collabNetDone: the downlink drained; the decode tail follows.
func (s *session) collabNetDone() {
	s.decRes.Request(sim.Time(s.frame.rec.DecodeSeconds*stageTail), s.cbCollabDecoded)
}

// collabDecoded closes the remote branch.
func (s *session) collabDecoded() {
	f := &s.frame
	f.rec.RemoteChainSeconds = s.eng.Now().Seconds() - f.chainStart
	s.collabBranchDone()
}

// collabBranchDone joins the local and remote branches; composition
// starts when both have landed.
func (s *session) collabBranchDone() {
	f := &s.frame
	f.join--
	if f.join != 0 {
		return
	}
	periphery := 2 * f.part.PeripheryPixels
	if s.cfg.Design == QVR {
		t := s.cfg.UCA.FrameSeconds(s.disp.Width, s.disp.Height, s.boundaryFraction(f.part.E1, f.part.E2))
		f.rec.ComposeSeconds = t
		// The UCA starts on tiles as soon as their layer data is
		// resident, before rendering completes (Fig. 4-C), so only
		// a tail of its work remains on the critical path.
		s.ucaRes.Request(sim.Time(t*ucaTailFraction), s.cbFrameDone)
	} else {
		t := uca.GPUCompositionSeconds(s.disp.Width, s.disp.Height, s.cfg.GPU.FrequencyMHz, periphery > 0)
		f.rec.ComposeSeconds = t
		s.gpuRes.Request(sim.Time(t), s.cbFrameDone)
	}
}

// resolutionReduction computes the Fig. 13 metric: the fraction of
// native frame pixels that are neither rendered locally nor
// transmitted (fovea at scale 1, periphery at its reduced scales).
func resolutionReduction(d foveation.Display, part foveation.Partition) float64 {
	total := float64(d.TotalPixels())
	rendered := float64(part.Fovea.Pixels) + float64(part.PeripheryPixels)
	red := 1 - rendered/total
	if red < 0 {
		red = 0
	}
	return red
}
