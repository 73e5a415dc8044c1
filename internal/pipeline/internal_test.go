package pipeline

import (
	"math"
	"testing"
	"testing/quick"

	"qvr/internal/foveation"
	"qvr/internal/motion"
	"qvr/internal/scene"
)

// Unit tests for session internals that the end-to-end tests only
// exercise indirectly.

func newTestSession(t *testing.T, d Design) *session {
	t.Helper()
	cfg := DefaultConfig(d, scene.EvalApps[0])
	s := &session{
		cfg: cfg,
		disp: foveation.Display{
			Width: cfg.App.Width, Height: cfg.App.Height,
			FovH: 110, FovV: 90,
		},
	}
	s.part = *foveation.NewPartitioner(s.disp)
	return s
}

func TestBoundaryFractionBounds(t *testing.T) {
	s := newTestSession(t, QVR)
	f := func(e1, e2 float64) bool {
		e1 = math.Abs(math.Mod(e1, 90))
		e2 = e1 + math.Abs(math.Mod(e2, 50))
		got := s.boundaryFraction(e1, e2)
		return got >= 0 && got <= 0.6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoundaryFractionGrowsWithRadii(t *testing.T) {
	s := newTestSession(t, QVR)
	small := s.boundaryFraction(10, 25)
	big := s.boundaryFraction(30, 55)
	if big <= small {
		t.Errorf("boundary fraction %v not above %v for larger circles", big, small)
	}
}

func TestMotionNormSaturates(t *testing.T) {
	if got := motionNorm(motion.Delta{DYaw: 1e6}); got != 2 {
		t.Errorf("huge delta norm = %v, want saturated 2", got)
	}
	if got := motionNorm(motion.Delta{}); got != 0 {
		t.Errorf("zero delta norm = %v", got)
	}
}

func TestStageFPSQVRSoftwareSerializes(t *testing.T) {
	// For the software variant CPU and GPU times add; for QVR they max.
	rec := FrameRecord{
		CPUSeconds:          0.002,
		LocalRenderSeconds:  0.010,
		ComposeSeconds:      0.003,
		AirtimeSeconds:      0.001,
		RemoteRenderSeconds: 0.001,
		DecodeSeconds:       0.001,
	}
	sw := newTestSession(t, QVRSoftware)
	qvr := newTestSession(t, QVR)

	swFPS := sw.stageFPS(&rec)
	qvrFPS := qvr.stageFPS(&rec)
	// Software: 2 + 10 + 3 = 15ms serialized.
	if math.Abs(1/swFPS-0.015) > 1e-9 {
		t.Errorf("software stage = %v, want 15ms", 1/swFPS)
	}
	// QVR: compose runs on the UCA, so the GPU stage is 10ms.
	if math.Abs(1/qvrFPS-0.010) > 1e-9 {
		t.Errorf("qvr stage = %v, want 10ms", 1/qvrFPS)
	}
}

func TestStageFPSStaticMissDrains(t *testing.T) {
	rec := FrameRecord{
		CPUSeconds:         0.001,
		LocalRenderSeconds: 0.004,
		ComposeSeconds:     0.005,
		AirtimeSeconds:     0.020,
		RemoteChainSeconds: 0.045,
		PredictionMiss:     true,
	}
	st := newTestSession(t, StaticCollab)
	got := 1 / st.stageFPS(&rec)
	if math.Abs(got-0.050) > 1e-9 { // chain + compose
		t.Errorf("miss-frame stage = %v, want 50ms", got)
	}
	rec.PredictionMiss = false
	got = 1 / st.stageFPS(&rec)
	if math.Abs(got-0.020) > 1e-9 { // airtime dominates
		t.Errorf("hit-frame stage = %v, want 20ms", got)
	}
}

func TestLiwcGeomClampsEccentricity(t *testing.T) {
	s := newTestSession(t, QVR)
	g := liwcGeom{part: &s.part, density: 1}
	// Out-of-range inputs must not panic and must return sane values.
	for _, e1 := range []float64{-10, 0, 4.9, 90.1, 500} {
		share := g.FoveaShare(e1)
		if share < 0 || share > 1 {
			t.Errorf("share(%v) = %v", e1, share)
		}
		if px := g.PeripheryPixels(e1); px < 0 {
			t.Errorf("periphery(%v) = %d", e1, px)
		}
	}
}

func TestLiwcGeomDensityScalesShare(t *testing.T) {
	s := newTestSession(t, QVR)
	lo := liwcGeom{part: &s.part, density: 0.5}
	hi := liwcGeom{part: &s.part, density: 2}
	if hi.FoveaShare(20) <= lo.FoveaShare(20) {
		t.Error("density did not scale fovea share")
	}
	// Saturation at 1.
	if got := hi.FoveaShare(90); got > 1 {
		t.Errorf("share saturates above 1: %v", got)
	}
}

// TestLiwcGeomMemoMatchesFreshPartition checks that the memoized
// partition always equals a fresh Partitioner.Partition: after a gaze
// change, after an e1 change, and after an out-of-range e1 whose error
// must not be cached.
func TestLiwcGeomMemoMatchesFreshPartition(t *testing.T) {
	s := newTestSession(t, QVR)
	g := liwcGeom{part: &s.part, density: 1}
	check := func(step string, e1 float64) {
		t.Helper()
		got, gotErr := g.partition(e1)
		want, wantErr := s.part.Partition(e1, g.gx, g.gy)
		if gotErr != wantErr || got != want {
			t.Errorf("%s: memo (%+v, %v), fresh (%+v, %v)", step, got, gotErr, want, wantErr)
		}
	}
	g.gx, g.gy = 10, -5
	check("first", 20)
	check("repeat", 20)
	g.gx, g.gy = -30, 12
	check("gaze changed", 20)
	check("e1 changed", 33.5)
	check("out of range", 120)
	if g.memoKey[0] != math.Float64bits(33.5) {
		t.Error("an out-of-range e1 replaced the memo")
	}
	check("after error", 33.5)
	if g.PeripheryPixels(33.5) != 2*g.memoValue.PeripheryPixels {
		t.Error("PeripheryPixels disagrees with the memoized partition")
	}
}

func TestResolutionReductionBounds(t *testing.T) {
	s := newTestSession(t, QVR)
	f := func(e1, gx, gy float64) bool {
		e1 = 5 + math.Abs(math.Mod(e1, 85))
		gx = math.Mod(gx, 40)
		gy = math.Mod(gy, 30)
		p, err := s.part.Partition(e1, gx, gy)
		if err != nil {
			return true
		}
		red := resolutionReduction(s.disp, p)
		return red >= 0 && red <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPercentileMTP(t *testing.T) {
	var r Result
	for i := 1; i <= 100; i++ {
		r.Frames = append(r.Frames, FrameRecord{MTPSeconds: float64(i) / 1000})
	}
	if got := r.PercentileMTP(0.5) * 1000; math.Abs(got-50) > 1.01 {
		t.Errorf("p50 = %v, want ~50", got)
	}
	if got := r.PercentileMTP(0.99) * 1000; math.Abs(got-99) > 1.01 {
		t.Errorf("p99 = %v, want ~99", got)
	}
	if got := r.PercentileMTP(1.0) * 1000; got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := r.PercentileMTP(0.0001) * 1000; got != 1 {
		t.Errorf("p~0 = %v, want 1", got)
	}
	var empty Result
	if empty.PercentileMTP(0.5) != 0 {
		t.Error("empty percentile not zero")
	}
}

func TestControllerLatencyDegradesFPS(t *testing.T) {
	app := mustApp(t, "UT3")
	fast := Run(shortCfg(QVR, app))
	cfg := shortCfg(QVR, app)
	cfg.ControllerLatencySeconds = 0.015 // edge-TPU class inference
	slow := Run(cfg)
	if slow.FPS() >= fast.FPS()*0.85 {
		t.Errorf("15ms controller latency barely hurt: %v vs %v fps", slow.FPS(), fast.FPS())
	}
}
