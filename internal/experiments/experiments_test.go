package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qvr/internal/pipeline"
	"qvr/internal/scene"
)

// fast keeps experiment tests quick while exercising the full paths.
var fast = Options{Frames: 80, Warmup: 30, Seed: 1}

func TestFig3Shapes(t *testing.T) {
	r := Fig3(fast)
	if len(r.Local) != 5 || len(r.Remote) != 5 {
		t.Fatalf("rows: local %d remote %d, want 5 each", len(r.Local), len(r.Remote))
	}
	for i, row := range r.Local {
		// Local-only: no transmit, render dominates for heavy apps.
		if row.Breakdown.Transmit != 0 {
			t.Errorf("local row %s has transmit %v", row.App, row.Breakdown.Transmit)
		}
		if row.FPS <= 0 || row.TotalMS <= 0 {
			t.Errorf("local row %d invalid: %+v", i, row)
		}
		// No Table 1 app sustains 90 Hz locally (the motivation).
		if row.FPS > 60 {
			t.Errorf("%s local FPS %.0f implausibly high", row.App, row.FPS)
		}
	}
	for _, row := range r.Remote {
		if row.Breakdown.Transmit <= 0 {
			t.Errorf("remote row %s missing transmit", row.App)
		}
	}
	out := r.Render()
	for _, app := range []string{"Foveated3D", "Viking", "Nature", "Sponza", "SanMiguel"} {
		if !strings.Contains(out, app) {
			t.Errorf("render missing %s", app)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	r := Table1(fast)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MinLocalMS > row.AvgLocalMS || row.AvgLocalMS > row.MaxLocalMS {
			t.Errorf("%s: min/avg/max ordering broken: %v %v %v",
				row.App, row.MinLocalMS, row.AvgLocalMS, row.MaxLocalMS)
		}
		// Back size anchors: full-resolution backgrounds in the
		// hundreds of KB (paper: 480-650 KB).
		if row.BackSizeKB < 200 || row.BackSizeKB > 900 {
			t.Errorf("%s: back size %.0fKB outside plausible band", row.App, row.BackSizeKB)
		}
		// T_remote well above the 11ms frame budget (the Table 1
		// finding that motivates Q-VR).
		if row.RemoteMS < 11 {
			t.Errorf("%s: T_remote %.1fms unexpectedly fits the budget", row.App, row.RemoteMS)
		}
	}
	if !strings.Contains(r.Render(), "Table 1") {
		t.Error("render missing title")
	}
}

func TestFig5Increases(t *testing.T) {
	r := Fig5(fast)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Latency rises as distance shrinks (Fig. 5: 12 -> 15 -> 26 ms).
	if !(r.Rows[0].LatencyMS < r.Rows[1].LatencyMS && r.Rows[1].LatencyMS < r.Rows[2].LatencyMS) {
		t.Errorf("latencies not increasing with approach: %+v", r.Rows)
	}
	// The near/far ratio lands near the paper's ~2.2x.
	ratio := r.Rows[2].LatencyMS / r.Rows[0].LatencyMS
	if ratio < 1.4 || ratio > 3.5 {
		t.Errorf("near/far latency ratio %.2f outside band", ratio)
	}
}

func TestFig6Shapes(t *testing.T) {
	r := Fig6(fast)
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		prev := 0.0
		for _, p := range s.Points {
			if p.LatencyMS < prev {
				t.Errorf("%s: latency not monotonic in e1", s.Name)
				break
			}
			prev = p.LatencyMS
		}
	}
	// The paper's finding: eccentricities up to ~15 degrees fit the
	// 11 ms budget for all complexities.
	if r.MaxBudgetE1 < 10 {
		t.Errorf("budget-feasible e1 = %.1f, want >= 10", r.MaxBudgetE1)
	}
	// Relative frame size grows with e1 (more full-res fovea).
	if len(r.FrameSize) < 2 || r.FrameSize[len(r.FrameSize)-1].LatencyMS <= r.FrameSize[0].LatencyMS {
		t.Error("relative frame size not growing with e1")
	}
	if !strings.Contains(r.Render(), "Fig.6") {
		t.Error("render missing title")
	}
}

func TestFig12Headlines(t *testing.T) {
	r := Fig12(fast)
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.AvgQVR < 2.3 || r.AvgQVR > 4.5 {
		t.Errorf("avg Q-VR speedup %.2f outside band (paper 3.4)", r.AvgQVR)
	}
	if r.MaxQVR < 4 {
		t.Errorf("max Q-VR speedup %.2f below band (paper 6.7)", r.MaxQVR)
	}
	if r.QVROverStaticFPS < 2.5 {
		t.Errorf("Q-VR/static FPS %.2f below band (paper 4.1)", r.QVROverStaticFPS)
	}
	if r.QVROverSWFPS < 1.3 {
		t.Errorf("Q-VR/software FPS %.2f below band (paper 2.8)", r.QVROverSWFPS)
	}
	// Q-VR must beat DFR which must beat FFR on average.
	if !(r.AvgQVR > r.AvgDFR && r.AvgDFR > r.AvgFFR) {
		t.Errorf("design ordering broken: ffr=%.2f dfr=%.2f qvr=%.2f", r.AvgFFR, r.AvgDFR, r.AvgQVR)
	}
	if !strings.Contains(r.Render(), "Fig.12") {
		t.Error("render missing title")
	}
}

func TestFig13Headlines(t *testing.T) {
	r := Fig13(fast)
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.QVROverStaticReduction < 0.75 {
		t.Errorf("transmit reduction %.0f%% below band (paper 85%%)", r.QVROverStaticReduction*100)
	}
	for _, row := range r.Rows {
		if row.Static < 0.9 {
			t.Errorf("%s: static (%.2f) should not reduce data", row.App, row.Static)
		}
		if row.QVR >= row.FFR {
			t.Errorf("%s: Q-VR (%.2f) should transmit less than FFR (%.2f)", row.App, row.QVR, row.FFR)
		}
	}
	// Doom3-L: near-total reduction (paper: 96%).
	for _, row := range r.Rows {
		if row.App == "Doom3-L" && row.QVR > 0.1 {
			t.Errorf("Doom3-L Q-VR transmit %.2f, want near zero", row.QVR)
		}
	}
}

func TestFig14Convergence(t *testing.T) {
	r := Fig14(fast)
	if len(r.Series) != len(Fig14Apps) {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.LatencyRatio) != 300 {
			t.Fatalf("%s: %d frames, want 300", s.App, len(s.LatencyRatio))
		}
		// Starts from the classic fovea.
		if s.E1[0] > 11 {
			t.Errorf("%s: first-frame e1 = %v, want near 5", s.App, s.E1[0])
		}
		// Steady state: the mean late ratio is near balance and FPS is
		// 90 Hz class.
		var ratio, fps float64
		for i := 200; i < 300; i++ {
			ratio += s.LatencyRatio[i]
			fps += s.FPS[i]
		}
		ratio /= 100
		fps /= 100
		if ratio < 0.3 || ratio > 2.5 {
			t.Errorf("%s: late latency ratio %.2f not near balance", s.App, ratio)
		}
		if fps < 70 {
			t.Errorf("%s: late FPS %.0f below 90Hz class", s.App, fps)
		}
	}
}

func TestTable4Shapes(t *testing.T) {
	// A reduced sweep keeps runtime down: the full table is exercised
	// by the bench harness.
	o := Options{Frames: 60, Warmup: 30, Seed: 1}
	r := Table4(o)
	if len(r.Cells) != 3*3*7 {
		t.Fatalf("cells = %d, want 63", len(r.Cells))
	}
	get := func(freq float64, net, app string) Table4Cell {
		for _, c := range r.Cells {
			if c.FreqMHz == freq && c.Network == net && c.App == app {
				return c
			}
		}
		t.Fatalf("missing cell %v %s %s", freq, net, app)
		return Table4Cell{}
	}
	// Table 4 shapes: LTE > WiFi > 5G eccentricity; lower frequency
	// shrinks the fovea; Doom3-L stays near fully local on WiFi/LTE.
	for _, app := range []string{"Doom3-H", "HL2-H", "Wolf"} {
		wifi := get(500, "Wi-Fi", app).AvgE1
		lte := get(500, "4G LTE", app).AvgE1
		g5 := get(500, "Early 5G", app).AvgE1
		if !(lte > wifi) {
			t.Errorf("%s: LTE e1 %.1f not above WiFi %.1f", app, lte, wifi)
		}
		if g5 > wifi+1 {
			t.Errorf("%s: 5G e1 %.1f above WiFi %.1f", app, g5, wifi)
		}
	}
	if f500, f300 := get(500, "Wi-Fi", "HL2-H").AvgE1, get(300, "Wi-Fi", "HL2-H").AvgE1; f300 >= f500 {
		t.Errorf("300MHz e1 %.1f not below 500MHz %.1f", f300, f500)
	}
	if d3l := get(500, "Wi-Fi", "Doom3-L").AvgE1; d3l < 70 {
		t.Errorf("Doom3-L WiFi e1 = %.1f, want > 70", d3l)
	}
	if !strings.Contains(r.Render(), "Table 4") {
		t.Error("render missing title")
	}
}

func TestFig15Shapes(t *testing.T) {
	o := Options{Frames: 60, Warmup: 30, Seed: 1}
	r := Fig15(o)
	if len(r.Cells) != 63 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	if r.AvgReduction < 0.3 {
		t.Errorf("avg energy reduction %.0f%% below band (paper 73%%)", r.AvgReduction*100)
	}
	for _, c := range r.Cells {
		if c.Normalized <= 0 || c.Normalized > 1.6 {
			t.Errorf("cell %s/%s/%.0f: normalized energy %v out of range",
				c.App, c.Network, c.FreqMHz, c.Normalized)
		}
	}
	if !strings.Contains(r.Render(), "Fig.15") {
		t.Error("render missing title")
	}
}

func TestOverheadAnchors(t *testing.T) {
	r := Overhead(Options{})
	if r.LIWCTableKB != 64 {
		t.Errorf("LIWC table = %dKB, want 64", r.LIWCTableKB)
	}
	if r.UCATileCycles != 532 {
		t.Errorf("UCA tile cycles = %d, want 532", r.UCATileCycles)
	}
	if r.UCAFrameMS <= 0 || r.UCAFrameMS > 5 {
		t.Errorf("UCA frame = %.2fms, want < 5ms", r.UCAFrameMS)
	}
	out := r.Render()
	if !strings.Contains(out, "LIWC") || !strings.Contains(out, "UCA") {
		t.Error("render incomplete")
	}
}

func TestSurveyProxy(t *testing.T) {
	r := Survey(fast)
	if len(r.Rows) < 5 {
		t.Fatalf("survey rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The paper's claim: no perceptible difference while the MAR
		// constraint holds. Our partitions satisfy it by construction,
		// and the foveal region must stay high fidelity at every e1.
		if !row.MARSatisfied {
			t.Errorf("e1=%v: MAR violated", row.E1Deg)
		}
		if row.FovealPSNR < 30 {
			t.Errorf("e1=%v: foveal PSNR %.1f dB below perceptual threshold", row.E1Deg, row.FovealPSNR)
		}
		if row.Score < 3.5 {
			t.Errorf("e1=%v: survey score %v", row.E1Deg, row.Score)
		}
		// The periphery is allowed to degrade: global PSNR <= foveal.
		if row.GlobalPSNR > row.FovealPSNR+1 {
			t.Errorf("e1=%v: global PSNR %.1f above foveal %.1f", row.E1Deg, row.GlobalPSNR, row.FovealPSNR)
		}
	}
	if !strings.Contains(r.Render(), "survey") {
		t.Error("render missing title")
	}
}

// TestWorkerCountInvariance pins the pool's determinism contract: the
// sweeps assemble identical results whether one worker or four run
// their sessions.
func TestWorkerCountInvariance(t *testing.T) {
	o := Options{Frames: 20, Warmup: 10, Seed: 1}
	sweep := func(procs int) []any {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return []any{Fig12(o), Fig13(o), Table4(o), Fig15(o), Fig3(o), Table1(o)}
	}
	one, four := sweep(1), sweep(4)
	for i := range one {
		if !reflect.DeepEqual(one[i], four[i]) {
			t.Errorf("%T differs between GOMAXPROCS 1 and 4", one[i])
		}
	}
}

// TestStreamMatchesMaterialized checks that the streamed FrameStats
// means are bit-identical to pipeline.Run's materialized accessors,
// for one config per design.
func TestStreamMatchesMaterialized(t *testing.T) {
	app, _ := scene.AppByName("GRID")
	var cfgs []pipeline.Config
	for _, d := range pipeline.Designs {
		cfgs = append(cfgs, fast.fill().config(d, app, nil))
	}
	for i, st := range stream(cfgs) {
		r := pipeline.Run(cfgs[i])
		got := []float64{st.AvgMTPSeconds(), st.FPS(), st.AvgBytesSent(), st.AvgE1(), st.AvgEnergyJoules(), st.AvgResolutionReduction()}
		want := []float64{r.AvgMTPSeconds(), r.FPS(), r.AvgBytesSent(), r.AvgE1(), r.AvgEnergyJoules(), r.AvgResolutionReduction()}
		if !reflect.DeepEqual(got, want) || st.Frames != len(r.Frames) {
			t.Errorf("%v: streamed %v over %d frames, materialized %v over %d",
				cfgs[i].Design, got, st.Frames, want, len(r.Frames))
		}
	}
}
