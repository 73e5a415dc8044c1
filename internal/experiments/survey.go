package experiments

import (
	"fmt"
	"math"

	"qvr/internal/atw"
	"qvr/internal/codec"
	"qvr/internal/foveation"
	"qvr/internal/raster"
	"qvr/internal/vec"
)

// SurveyRow is one eccentricity condition of the perception study.
type SurveyRow struct {
	E1Deg float64
	// FovealPSNR measures fidelity inside the foveal disc — the region
	// the eye actually resolves.
	FovealPSNR float64
	// GlobalPSNR measures the whole frame including the degraded
	// periphery (which the fovea cannot resolve).
	GlobalPSNR float64
	// MARSatisfied reports whether every layer met its MAR constraint.
	MARSatisfied bool
	// Score is the survey proxy on the paper's 5-point scale, derived
	// from foveal fidelity.
	Score float64
}

// SurveyResult reproduces the Section 3.1 user study: 50 candidates
// scored foveated images across eccentricities and "observe no visible
// image quality difference ... when the target MAR is satisfied". The
// physical study is replaced by a measurable proxy: foveated frames
// are actually rendered, compressed, streamed layer-by-layer and
// composed by the functional pipeline, then compared against a
// monolithic full-resolution render. Foveal-region PSNR stands in for
// perceived quality (the periphery is invisible to the fovea by
// construction of the MAR constraint).
type SurveyResult struct {
	Rows []SurveyRow
}

// Survey runs the perception-proxy study across fovea radii.
func Survey(Options) SurveyResult {
	const size = 160
	tris := raster.GenerateScene(50, 100, int64(13))
	pose := vec.FromEuler(0.12, -0.06, 0)

	render := func(w, h int) *codec.Image {
		fb := raster.NewFramebuffer(w, h)
		fb.Clear(40)
		r := raster.NewRenderer(fb)
		r.SetPose(vec.Vec3{Y: 0.4, Z: 6}, pose, math.Pi/2)
		r.DrawAll(tris)
		return fb.Image()
	}

	reference := render(size, size)
	part := foveation.NewPartitioner(foveation.Display{Width: size, Height: size, FovH: 110, FovV: 90})
	rp := atw.NewReprojection(pose, pose, 110, 90)

	var out SurveyResult
	for _, e1 := range []float64{40, 30, 20, 15, 10, 5} {
		p, err := part.Partition(e1, 0, 0)
		if err != nil {
			continue
		}
		// Normalized fovea radius for the compositor: eccentricity
		// over the half-diagonal.
		maxEcc := part.Display.MaxEccentricity()
		foveaR := e1 / maxEcc
		midR := p.E2 / maxEcc

		midSize := int(float64(size) * p.Middle.Scale)
		outSize := int(float64(size) * p.Outer.Scale)
		if midSize < 8 {
			midSize = 8
		}
		if outSize < 8 {
			outSize = 8
		}
		// Render, compress and decompress the periphery layers: the
		// client sees codec output, not pristine pixels.
		mid, errM := codec.Decode(codec.Encode(render(midSize, midSize), 0.85))
		outer, errO := codec.Decode(codec.Encode(render(outSize, outSize), 0.85))
		if errM != nil || errO != nil {
			continue
		}
		layers := atw.LayerSet{
			Fovea:  render(size, size),
			Middle: mid, Outer: outer,
			FoveaRadius: foveaR, MidRadius: midR,
			Center: vec.Vec2{X: 0.5, Y: 0.5},
		}
		composed, _ := atw.ComposeUnified(layers, atw.Distortion{}, rp, size, size)

		row := SurveyRow{
			E1Deg:        e1,
			FovealPSNR:   regionPSNR(reference, composed, foveaR),
			MARSatisfied: part.PerceptionScore(p) >= 1,
		}
		if g, err := codec.PSNR(reference, composed); err == nil {
			row.GlobalPSNR = g
		}
		row.Score = scoreFromPSNR(row.FovealPSNR)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// regionPSNR computes PSNR restricted to the disc of normalized radius
// r around the frame center.
func regionPSNR(a, b *codec.Image, r float64) float64 {
	var mse float64
	n := 0
	cx, cy := float64(a.W)/2, float64(a.H)/2
	maxR := r * math.Hypot(cx, cy)
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			if math.Hypot(float64(x)-cx, float64(y)-cy) > maxR {
				continue
			}
			d := float64(a.At(x, y)) - float64(b.At(x, y))
			mse += d * d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	mse /= float64(n)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

// scoreFromPSNR maps foveal fidelity onto the survey's 5-point scale.
func scoreFromPSNR(psnr float64) float64 {
	switch {
	case psnr >= 42:
		return 5
	case psnr >= 36:
		return 4.5
	case psnr >= 32:
		return 4
	case psnr >= 28:
		return 3
	case psnr >= 24:
		return 2
	default:
		return 1
	}
}

// Render formats the survey table.
func (r SurveyResult) Render() string {
	head := []string{"e1(deg)", "foveal PSNR", "global PSNR", "MAR ok", "score/5"}
	var rows [][]string
	for _, x := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", x.E1Deg),
			fmt.Sprintf("%.1f dB", x.FovealPSNR),
			fmt.Sprintf("%.1f dB", x.GlobalPSNR),
			fmt.Sprintf("%v", x.MARSatisfied),
			fmt.Sprintf("%.1f", x.Score),
		})
	}
	return "Section 3.1 perception survey proxy (foveated vs full render)\n" + table(head, rows)
}
