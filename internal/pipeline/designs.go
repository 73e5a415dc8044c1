package pipeline

import (
	"math"

	"qvr/internal/foveation"
	"qvr/internal/gpu"
	"qvr/internal/sim"
	"qvr/internal/uca"
)

// frameLocalOnly renders the whole frame on the mobile GPU, then runs
// ATW on the GPU: the commercial mobile VR baseline. The stages are
// prebound session callbacks — local-only is also the fleet's
// failover mode, so it runs at scale.
func (s *session) frameLocalOnly(f *frameState) {
	render := s.cfg.GPU.FullFrameSeconds(s.cfg.App, f.stats)
	f.rec.LocalRenderSeconds = render
	f.rec.FoveaShare = 1
	s.gpuRes.Request(sim.Time(render), s.cbLocalRendered)
}

func (s *session) localRendered() {
	atw := uca.GPUCompositionSeconds(s.disp.Width, s.disp.Height, s.cfg.GPU.FrequencyMHz, false)
	s.frame.rec.ComposeSeconds = atw
	s.gpuRes.Request(sim.Time(atw), s.cbLocalComposed)
}

func (s *session) localComposed() {
	s.finish(&s.frame, s.eng.Now().Seconds(), 0)
}

// frameRemoteOnly offloads the whole frame to the remote cluster and
// streams it back: the cloud-gaming baseline.
func (s *session) frameRemoteOnly(f *frameState) {
	app := s.cfg.App
	chainStart := s.eng.Now().Seconds()

	req := s.requestSeconds(f)
	f.rec.RequestSeconds = req
	s.eng.Schedule(sim.Time(req), func() {
		render := s.cfg.Remote.RenderSeconds(gpu.FrameWorkload(app, f.stats, 1, 1))
		f.rec.RemoteRenderSeconds = render
		s.remRes.Request(sim.Time(render), func() {
			pixels := app.PixelsPerFrame()
			enc := s.cfg.Codec.EncodeSeconds(pixels)
			f.rec.EncodeSeconds = enc
			s.eng.Schedule(sim.Time(enc), func() {
				bytes := s.cfg.Codec.FrameBytes(pixels, f.stats.Entropy, 1, motionNorm(s.motionDelta(f)))
				f.rec.BytesSent = bytes
				f.rec.AirtimeSeconds = s.cfg.Network.AirtimeSeconds(bytes)
				tx := s.transferSeconds(bytes, s.eng.Now().Seconds())
				f.rec.TransferSeconds = tx
				s.netRes.Request(sim.Time(tx), func() {
					dec := s.cfg.Codec.DecodeSeconds(pixels)
					f.rec.DecodeSeconds = dec
					s.decRes.Request(sim.Time(dec), func() {
						f.rec.RemoteChainSeconds = s.eng.Now().Seconds() - chainStart
						atw := uca.GPUCompositionSeconds(s.disp.Width, s.disp.Height, s.cfg.GPU.FrequencyMHz, false)
						f.rec.ComposeSeconds = atw
						s.gpuRes.Request(sim.Time(atw), func() {
							s.finish(f, s.eng.Now().Seconds(), 0)
						})
					})
				})
			})
		})
	})
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

	chainStart := s.eng.Now().Seconds()
	pixels := app.PixelsPerFrame()
	// Backgrounds carry depth maps for composition (Section 2.3);
	// depth planes compress poorly, inflating the payload.
	bytes := int(float64(s.cfg.Codec.FrameBytes(pixels, f.stats.Entropy, 1, motionNorm(delta))) * 1.3)
	f.rec.BytesSent = bytes
	f.rec.AirtimeSeconds = s.cfg.Network.AirtimeSeconds(bytes)

	// displayAt is when the composed frame became displayable; on hits
	// composition only waits for the local render.
	var displayAt float64
	var staleness float64

	f.join = 2
	allDone := func() {
		f.join--
		if f.join == 0 {
			s.finish(f, displayAt, staleness)
		}
	}
	compose := func(after func()) {
		// Composition with collision detection and embedding is
		// heavier than plain foveated blending (Section 1: "high
		// composition overhead ... more complex collision detection
		// and embedding methods").
		comp := uca.GPUCompositionSeconds(s.disp.Width, s.disp.Height, s.cfg.GPU.FrequencyMHz, true) * 1.3
		f.rec.ComposeSeconds = comp
		s.gpuRes.Request(sim.Time(comp), func() {
			displayAt = s.eng.Now().Seconds()
			after()
		})
	}

	fetch := func(done func()) {
		req := s.requestSeconds(f)
		f.rec.RequestSeconds = req
		s.eng.Schedule(sim.Time(req), func() {
			render := s.cfg.Remote.RenderSeconds(gpu.FrameWorkload(app, f.stats, 1, 1))
			f.rec.RemoteRenderSeconds = render
			s.remRes.Request(sim.Time(render), func() {
				enc := s.cfg.Codec.EncodeSeconds(pixels)
				f.rec.EncodeSeconds = enc
				s.eng.Schedule(sim.Time(enc), func() {
					tx := s.transferSeconds(bytes, s.eng.Now().Seconds())
					f.rec.TransferSeconds = tx
					s.netRes.Request(sim.Time(tx), func() {
						dec := s.cfg.Codec.DecodeSeconds(pixels)
						f.rec.DecodeSeconds = dec
						s.decRes.Request(sim.Time(dec), func() {
							f.rec.RemoteChainSeconds = s.eng.Now().Seconds() - chainStart
							done()
						})
					})
				})
			})
		})
	}

	if miss {
		// Miss: the frame waits on a correction round trip plus a
		// synchronous fetch before it can compose.
		s.gpuRes.Request(sim.Time(local), func() {})
		s.eng.Schedule(sim.Time(s.cfg.Network.RTTSeconds), func() {
			fetch(func() {
				compose(allDone)
			})
		})
		f.join = 1
	} else {
		// Hit: the background prefetched last frame is already
		// resident. Composition follows the local render; the fetch
		// for the next frame proceeds in parallel, and the frame is
		// not retired until it lands (it paces the steady state).
		// The displayed background was predicted roughly one fetch
		// chain ago - charge that age to motion-to-photon.
		s.gpuRes.Request(sim.Time(local), func() {
			compose(func() {
				staleness = f.rec.RemoteChainSeconds
				if staleness == 0 {
					staleness = 1 / TargetFPS
				}
				allDone()
			})
		})
		fetch(allDone)
	}
}

// liwcGeom adapts the foveation partitioner to the LIWC's Geometry
// interface for the current frame's gaze and content density. The
// session owns one instance (refreshed per frame) and hands out its
// pointer, so the interface conversion never allocates.
//
// It also remembers the last successful partition: the LIWC sizes the
// periphery at the e1 it plans, and the frame then partitions at that
// same e1 and gaze, so the second scan is answered from the memo.
type liwcGeom struct {
	part    *foveation.Partitioner
	gx, gy  float64
	density float64

	memoOK    bool
	memoKey   [3]uint64 // Float64bits of (e1, gx, gy)
	memoValue foveation.Partition
}

func (g *liwcGeom) FoveaShare(e1 float64) float64 {
	e1 = foveation.ClampE1(e1)
	share := g.part.Display.AreaFraction(e1, g.gx, g.gy) * g.density
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
	p, err := g.part.Partition(e1, g.gx, g.gy)
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
	midFrac := s.disp.AreaFraction(part.E2, f.sample.Gaze.X, f.sample.Gaze.Y) - part.FoveaAreaFraction
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
		s.ucaRes.Request(sim.Time(t*ucaTailFraction), s.cbCollabFinish)
	} else {
		t := uca.GPUCompositionSeconds(s.disp.Width, s.disp.Height, s.cfg.GPU.FrequencyMHz, periphery > 0)
		f.rec.ComposeSeconds = t
		s.gpuRes.Request(sim.Time(t), s.cbCollabFinish)
	}
}

// collabFinish retires the composed frame.
func (s *session) collabFinish() {
	s.finish(&s.frame, s.eng.Now().Seconds(), 0)
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
