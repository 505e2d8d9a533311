package render

import (
	"bytes"
	"image/color"
	"image/png"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func unitViewport() geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1} }

// massIn sums the cells in columns [x0, x1) of rows [y0, y1), image
// coordinates.
func massIn(r *Raster, x0, y0, x1, y1 int) float64 {
	var t float64
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			t += r.At(x, y)
		}
	}
	return t
}

func TestPlotCountsAndClipping(t *testing.T) {
	r := NewRaster(unitViewport(), 10, 10)
	pts := []geom.Point{
		geom.Pt(0.05, 0.05), // inside
		geom.Pt(0.05, 0.05), // duplicate accumulates
		geom.Pt(0.95, 0.95),
		geom.Pt(2, 2),    // outside
		geom.Pt(-1, 0.5), // outside
	}
	n := r.Plot(pts)
	if n != 3 {
		t.Errorf("plotted %d points, want 3", n)
	}
	if got := massIn(r, 0, 0, r.W, r.H); got != 3 {
		t.Errorf("total mass %v", got)
	}
	if r.OccupiedCells() != 2 {
		t.Errorf("occupied cells %d, want 2", r.OccupiedCells())
	}
	// (0.05, 0.05) is bottom-left in data space -> bottom row in image
	// coordinates (y grows downward).
	if r.At(0, 9) != 2 {
		t.Errorf("bottom-left cell = %v, want 2", r.At(0, 9))
	}
	if r.At(9, 0) != 1 {
		t.Errorf("top-right cell = %v, want 1", r.At(9, 0))
	}
}

func TestViewportBoundaryMapping(t *testing.T) {
	r := NewRaster(unitViewport(), 4, 4)
	// Max-edge points land in the last cells, not out of range.
	r.Plot([]geom.Point{geom.Pt(1, 1), geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)})
	if got := massIn(r, 0, 0, r.W, r.H); got != 4 {
		t.Errorf("mass = %v, want 4 (corner points clipped?)", got)
	}
	if r.At(3, 0) != 1 || r.At(0, 3) != 1 || r.At(3, 3) != 1 || r.At(0, 0) != 1 {
		t.Error("corner points not in corner cells")
	}
}

func TestMassIn(t *testing.T) {
	r := NewRaster(unitViewport(), 20, 20)
	rng := rand.New(rand.NewSource(1))
	var inQuad int
	for i := 0; i < 500; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		r.Plot([]geom.Point{p})
		if p.X < 0.5 && p.Y < 0.5 {
			inQuad++
		}
	}
	// The data-space lower-left quadrant is image columns [0, 10) of
	// rows [10, 20): y grows downward.
	if got := massIn(r, 0, 10, 10, 20); got != float64(inQuad) {
		t.Errorf("quadrant mass = %v, direct count = %d", got, inQuad)
	}
}

func TestPlotWeightedConservesMass(t *testing.T) {
	r := NewRaster(unitViewport(), 50, 50)
	pts := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.2, 0.8), geom.Pt(0.9, 0.1)}
	weights := []int64{100, 10, 1}
	n, err := r.PlotWeighted(pts, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("plotted %d", n)
	}
	// Total mass is conserved up to disc clipping at borders.
	if got := massIn(r, 0, 0, r.W, r.H); math.Abs(got-111) > 111*0.05 {
		t.Errorf("total mass %v, want ≈111", got)
	}
	// The heavy point spreads over more cells than the light one.
	if r.OccupiedCells() < 5 {
		t.Errorf("weighted plot occupied only %d cells", r.OccupiedCells())
	}
}

func TestPlotWeightedErrors(t *testing.T) {
	r := NewRaster(unitViewport(), 10, 10)
	if _, err := r.PlotWeighted([]geom.Point{geom.Pt(0, 0)}, []int64{1, 2}, 0); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestImageAndPNG(t *testing.T) {
	r := NewRaster(unitViewport(), 32, 32)
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	r.Plot(pts)
	img := r.Image()
	if img.Bounds().Dx() != 32 || img.Bounds().Dy() != 32 {
		t.Fatalf("image bounds %v", img.Bounds())
	}
	var buf bytes.Buffer
	if err := r.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("PNG round trip: %v", err)
	}
	if decoded.Bounds().Dx() != 32 {
		t.Error("decoded bounds mismatch")
	}
}

func TestEmptyRasterRendersWhite(t *testing.T) {
	r := NewRaster(unitViewport(), 8, 8)
	c := color.NRGBAModel.Convert(r.Image().At(3, 3)).(color.NRGBA)
	if c.R != 255 || c.G != 255 || c.B != 255 {
		t.Errorf("empty cell color %v, want white", c)
	}
}

func TestMapPlot(t *testing.T) {
	m := NewMapPlot(unitViewport(), 16, 16)
	pts := []geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.9, 0.9), geom.Pt(0.9, 0.9)}
	vals := []float64{0, 100, 200}
	if err := m.Plot(pts, vals); err != nil {
		t.Fatal(err)
	}
	img := m.Image()
	// Low-value corner must differ in color from high-value corner.
	lo := img.NRGBAAt(1, 14)
	hi := img.NRGBAAt(14, 1)
	if lo == hi {
		t.Error("value encoding produced identical colors for min and max")
	}
	var buf bytes.Buffer
	if err := m.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.Plot(pts, vals[:2]); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestZoomViewport(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 50}
	vp, err := ZoomViewport(bounds, geom.Pt(50, 25), 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vp.Width()-25) > 1e-9 || math.Abs(vp.Height()-12.5) > 1e-9 {
		t.Errorf("viewport %v, want 25x12.5", vp)
	}
	if vp.Center() != geom.Pt(50, 25) {
		t.Errorf("center %v", vp.Center())
	}
	// Near-edge zoom clamps inside bounds.
	edge, err := ZoomViewport(bounds, geom.Pt(1, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bounds.ContainsRect(edge) {
		t.Errorf("edge viewport %v escapes bounds", edge)
	}
	if math.Abs(edge.Width()-25) > 1e-9 {
		t.Errorf("clamped viewport width %v", edge.Width())
	}
	if _, err := ZoomViewport(bounds, geom.Pt(50, 25), 0.5); err == nil {
		t.Error("zoom < 1: want error")
	}
}

func TestNewRasterPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewRaster(unitViewport(), 0, 10) },
		func() { NewRaster(geom.EmptyRect(), 10, 10) },
		func() { NewMapPlot(unitViewport(), 10, -1) },
		func() { NewMapPlot(geom.EmptyRect(), 10, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}
