// Package scene models the rendering workloads the paper evaluates.
//
// The original evaluation replays DirectX/OpenGL API traces of real
// games (Table 3) and measures open-source high-quality VR apps
// (Table 1) on physical hardware. Neither the traces nor the graphics
// stacks exist here, so the substitute is a statistical workload model
// with two parts:
//
//  1. A per-app parameter record carrying the *published* statistics —
//     resolution, triangle count, draw-batch count, the interactive-
//     object workload share range f — plus two calibrated parameters
//     (shading cost and overdraw) fitted so the GPU timing model lands
//     on the paper's measured per-app local render times.
//
//  2. A per-frame dynamics model that makes the workload respond to
//     user motion the way the paper documents: scene complexity varies
//     smoothly with view direction (Fig. 8), interactive-object detail
//     grows as the user approaches (Fig. 5: the Nature tree goes from
//     12 ms to 26 ms), and the content density under the gaze center
//     modulates how much work a given fovea radius captures.
//
// All per-frame variation is a deterministic function of (app, view
// state), so identical motion traces reproduce identical workloads.
package scene

import (
	"fmt"
	"math"

	"qvr/internal/motion"
)

// App describes one benchmark application.
type App struct {
	Name string
	// Library is the rendering API of the original trace (Table 3).
	Library string
	// Width, Height are the per-eye resolution.
	Width, Height int
	// Triangles is the total visible-scene triangle count (mean).
	Triangles int
	// Batches is the draw-batch count (Table 3).
	Batches int
	// FMin, FMax bound the interactive-object share of frame rendering
	// latency (the f column of Table 1). Static collaborative rendering
	// renders exactly this share locally.
	FMin, FMax float64
	// ShadingCost is the relative per-fragment shading complexity
	// (1.0 = baseline). Calibrated against the paper's latency anchors.
	ShadingCost float64
	// Overdraw is the average depth complexity (fragments shaded per
	// output pixel).
	Overdraw float64
	// Entropy in (0,1] scales compressed frame size: busy outdoor
	// scenes compress worse than dark corridors.
	Entropy float64
	// ComplexityVar is the relative amplitude of view-direction-driven
	// workload variation (0 = static scene).
	ComplexityVar float64
	// LODBoost is the maximum triangle multiplier when the user is at
	// the closest interaction distance (Fig. 5 effect).
	LODBoost float64
	// InteractiveDesc names the pre-defined interactive objects used by
	// the static collaborative baseline (Table 1).
	InteractiveDesc string
	// Seed decorrelates the deterministic complexity fields across apps.
	Seed int64
}

// PixelsPerFrame returns the total pixels rendered per frame (both eyes).
func (a App) PixelsPerFrame() int { return 2 * a.Width * a.Height }

// String implements fmt.Stringer.
func (a App) String() string {
	return fmt.Sprintf("%s (%dx%d, %d tris, %d batches)", a.Name, a.Width, a.Height, a.Triangles, a.Batches)
}

// Table1Apps are the high-quality VR applications of Table 1, used for
// the motivation study (Fig. 3, Table 1, Fig. 5, Fig. 6).
var Table1Apps = []App{
	{
		Name: "Foveated3D", Library: "DirectX", Width: 1920, Height: 2160,
		Triangles: 231_000, Batches: 420,
		FMin: 0.16, FMax: 0.52,
		ShadingCost: 1.42, Overdraw: 2.0, Entropy: 0.78,
		ComplexityVar: 0.35, LODBoost: 2.6,
		InteractiveDesc: "9 Chess", Seed: 101,
	},
	{
		Name: "Viking", Library: "Unity", Width: 1920, Height: 2160,
		Triangles: 2_800_000, Batches: 1100,
		FMin: 0.10, FMax: 0.13,
		ShadingCost: 1.02, Overdraw: 2.1, Entropy: 0.74,
		ComplexityVar: 0.12, LODBoost: 1.3,
		InteractiveDesc: "1 Carriage", Seed: 102,
	},
	{
		Name: "Nature", Library: "Unity", Width: 1920, Height: 2160,
		Triangles: 1_400_000, Batches: 850,
		FMin: 0.10, FMax: 0.24,
		ShadingCost: 0.95, Overdraw: 2.2, Entropy: 0.82,
		ComplexityVar: 0.30, LODBoost: 2.2,
		InteractiveDesc: "1 Tree", Seed: 103,
	},
	{
		Name: "Sponza", Library: "VRWorks", Width: 1920, Height: 2160,
		Triangles: 282_000, Batches: 380,
		FMin: 0.001, FMax: 0.20,
		ShadingCost: 0.66, Overdraw: 2.0, Entropy: 0.62,
		ComplexityVar: 0.40, LODBoost: 2.4,
		InteractiveDesc: "Lion Shield", Seed: 104,
	},
	{
		Name: "SanMiguel", Library: "VRWorks", Width: 1920, Height: 2160,
		Triangles: 4_200_000, Batches: 1500,
		FMin: 0.06, FMax: 0.15,
		ShadingCost: 0.73, Overdraw: 2.1, Entropy: 0.80,
		ComplexityVar: 0.18, LODBoost: 1.6,
		InteractiveDesc: "4 Chairs, 1 Table", Seed: 105,
	},
}

// EvalApps are the gaming benchmarks of Table 3, used for the main
// evaluation (Fig. 12-15, Table 4). Shading cost and overdraw are
// calibrated so the 500 MHz full-frame local render times reproduce
// the paper's relative ordering (Doom3-L lightest, GRID heaviest).
var EvalApps = []App{
	{
		Name: "Doom3-H", Library: "OpenGL", Width: 1920, Height: 2160,
		Triangles: 400_000, Batches: 382,
		FMin: 0.08, FMax: 0.30,
		ShadingCost: 0.24, Overdraw: 1.5, Entropy: 0.58,
		ComplexityVar: 0.25, LODBoost: 1.8,
		InteractiveDesc: "monsters, weapons", Seed: 201,
	},
	{
		Name: "Doom3-L", Library: "OpenGL", Width: 1280, Height: 1600,
		Triangles: 400_000, Batches: 382,
		FMin: 0.08, FMax: 0.30,
		ShadingCost: 0.24, Overdraw: 1.5, Entropy: 0.58,
		ComplexityVar: 0.25, LODBoost: 1.8,
		InteractiveDesc: "monsters, weapons", Seed: 202,
	},
	{
		Name: "HL2-H", Library: "DirectX", Width: 1920, Height: 2160,
		Triangles: 2_200_000, Batches: 656,
		FMin: 0.10, FMax: 0.35,
		ShadingCost: 0.59, Overdraw: 2.0, Entropy: 0.66,
		ComplexityVar: 0.28, LODBoost: 2.0,
		InteractiveDesc: "NPCs, physics props", Seed: 203,
	},
	{
		Name: "HL2-L", Library: "DirectX", Width: 1280, Height: 1600,
		Triangles: 2_200_000, Batches: 656,
		FMin: 0.10, FMax: 0.35,
		ShadingCost: 0.59, Overdraw: 2.0, Entropy: 0.66,
		ComplexityVar: 0.28, LODBoost: 2.0,
		InteractiveDesc: "NPCs, physics props", Seed: 204,
	},
	{
		Name: "GRID", Library: "DirectX", Width: 1920, Height: 2160,
		Triangles: 3_600_000, Batches: 3680,
		FMin: 0.12, FMax: 0.40,
		ShadingCost: 1.05, Overdraw: 2.3, Entropy: 0.84,
		ComplexityVar: 0.35, LODBoost: 2.2,
		InteractiveDesc: "cars, cockpit", Seed: 205,
	},
	{
		Name: "UT3", Library: "DirectX", Width: 1920, Height: 2160,
		Triangles: 1_750_000, Batches: 1752,
		FMin: 0.10, FMax: 0.32,
		ShadingCost: 0.49, Overdraw: 2.0, Entropy: 0.70,
		ComplexityVar: 0.30, LODBoost: 2.0,
		InteractiveDesc: "players, projectiles", Seed: 206,
	},
	{
		Name: "Wolf", Library: "DirectX", Width: 1920, Height: 2160,
		Triangles: 3_400_000, Batches: 3394,
		FMin: 0.10, FMax: 0.35,
		ShadingCost: 0.86, Overdraw: 2.1, Entropy: 0.72,
		ComplexityVar: 0.32, LODBoost: 2.1,
		InteractiveDesc: "soldiers, vehicles", Seed: 207,
	},
}

// AppByName looks up an app in both catalogs.
func AppByName(name string) (App, bool) {
	for _, a := range Table1Apps {
		if a.Name == name {
			return a, true
		}
	}
	for _, a := range EvalApps {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// FrameStats is the per-frame workload snapshot the GPU model and the
// LIWC consume.
type FrameStats struct {
	// VisibleTriangles is the triangle count submitted this frame after
	// view-dependent variation and interaction LOD.
	VisibleTriangles int
	// InteractiveShare is the fraction of frame workload belonging to
	// the pre-defined interactive objects (for the static baseline).
	InteractiveShare float64
	// GazeDensity is the relative content density under the gaze
	// center: >1 means the fovea sits on a busy region.
	GazeDensity float64
	// ViewComplexity is the relative whole-frame workload multiplier
	// (1 = catalog mean).
	ViewComplexity float64
	// LODFactor is the interaction-proximity triangle multiplier.
	LODFactor float64
	// Entropy is the frame's content entropy for the codec.
	Entropy float64
}

// State evolves an app's workload under a motion trace.
type State struct {
	app App
}

// NewState creates the workload dynamics for app.
func NewState(app App) *State {
	s := &State{}
	s.Reset(app)
	return s
}

// Reset re-initializes the state in place for app, as NewState
// returns it.
func (s *State) Reset(app App) { *s = State{app: app} }

// App returns the underlying catalog entry.
func (s *State) App() App { return s.app }

// Frame computes the workload for the view described by the motion
// sample. It is a pure function of the sample, so replays of the same
// trace give identical workloads.
func (s *State) Frame(m motion.Sample) FrameStats {
	a := s.app

	yaw, pitch := viewAngles(m)

	// View-direction complexity: a smooth periodic field over the view
	// sphere. Different seeds give each app its own "world".
	vc := 1 + a.ComplexityVar*field2(yaw, pitch, a.Seed)

	// Interaction LOD: triangles scale up as the user closes in
	// (Fig. 5). At MaxDist the factor is 1; at zero distance LODBoost.
	lod := 1 + (a.LODBoost-1)/(1+m.InteractDist)

	// Gaze density: content density under the fovea center, a second
	// independent field sampled at the gaze position.
	gd := math.Exp(0.55 * field2(m.Gaze.X/20, m.Gaze.Y/20, a.Seed+7))
	gd = clamp(gd, 0.45, 2.4)

	// Interactive share tracks proximity within the app's f range:
	// close interaction animates the objects and raises their cost.
	prox := 1 / (1 + m.InteractDist) // 1 when touching, ->0 far away
	f := a.FMin + (a.FMax-a.FMin)*prox
	// A touch of view dependence keeps f moving frame to frame.
	f *= 1 + 0.1*field2(pitch, yaw, a.Seed+13)
	f = clamp(f, a.FMin, a.FMax)

	tris := float64(a.Triangles) * vc * lod

	return FrameStats{
		VisibleTriangles: int(tris),
		InteractiveShare: f,
		GazeDensity:      gd,
		ViewComplexity:   vc * lod,
		LODFactor:        lod,
		Entropy:          a.Entropy,
	}
}

// viewAngles extracts yaw and pitch (radians) of the forward direction.
func viewAngles(m motion.Sample) (yaw, pitch float64) {
	fwd := m.Head.Orientation.Forward()
	yaw = math.Atan2(-fwd.X, -fwd.Z)
	pitch = math.Asin(clamp(fwd.Y, -1, 1))
	return yaw, pitch
}

// field2 is a deterministic smooth field over R^2 with zero mean and
// values in [-1, 1]: a small sum of incommensurate sinusoids whose
// phases derive from the seed.
func field2(x, y float64, seed int64) float64 {
	s := float64(seed%997) * 0.6180339887
	v := 0.5*math.Sin(1.3*x+2.1*y+s) +
		0.3*math.Sin(2.9*x-1.7*y+2.3*s) +
		0.2*math.Sin(-1.1*x+3.3*y+4.1*s)
	return v
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
