// Package render implements the visualization layer of the Fig. 3
// architecture: it turns point sets (full datasets or samples) into scatter
// and map plots. Plots are rasterized into a count grid first — which is
// also what the simulated user study "sees" — and can be encoded to PNG via
// the standard library. A raster encodes as a palette PNG — just the
// colours it uses, at the bit depth they need, no row filters — at
// BestSpeed through one shared encoder and pooled buffers; an all-empty
// raster writes the constant tile of its size. Zoom viewports, per-point
// dot sizes from density counts (§V), and a value-colored map-plot mode
// are supported.
package render

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"sync"

	"repro/internal/geom"
)

// Raster is a W×H grid of accumulated point mass. Cell (0,0) is the top
// left; y grows downward as in image coordinates, so the viewport's MaxY
// maps to row 0.
type Raster struct {
	W, H     int
	Viewport geom.Rect
	cells    []float64
	pooled   *[]float64 // cells' pool handle, nil once released
}

// NewRaster returns an empty raster over the viewport, reusing the cells
// of one released at the same size when there is one. It panics when
// the resolution is not positive or the viewport is empty.
func NewRaster(viewport geom.Rect, w, h int) *Raster {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: raster size must be positive, got %dx%d", w, h))
	}
	if viewport.IsEmpty() {
		panic("render: empty viewport")
	}
	cells, _ := poolFor(&cellPools, size{w, h}).Get().(*[]float64)
	if cells == nil {
		c := make([]float64, w*h)
		cells = &c
	} else {
		clear(*cells)
	}
	return &Raster{W: w, H: h, Viewport: viewport, cells: *cells, pooled: cells}
}

// cellAt maps a data-space point to raster coordinates; ok is false when
// the point is outside the viewport.
func (r *Raster) cellAt(p geom.Point) (int, int, bool) {
	if !r.Viewport.Contains(p) {
		return 0, 0, false
	}
	fx := (p.X - r.Viewport.MinX) / r.Viewport.Width()
	fy := (p.Y - r.Viewport.MinY) / r.Viewport.Height()
	x := int(fx * float64(r.W))
	y := int((1 - fy) * float64(r.H))
	if x >= r.W {
		x = r.W - 1
	}
	if y >= r.H {
		y = r.H - 1
	}
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	return x, y, true
}

// Plot accumulates unit mass for every point inside the viewport and
// returns the number of points plotted.
func (r *Raster) Plot(pts []geom.Point) int {
	n := 0
	for _, p := range pts {
		if x, y, ok := r.cellAt(p); ok {
			r.cells[y*r.W+x]++
			n++
		}
	}
	return n
}

// PlotWeighted accumulates weights[i] of mass for each point, spread over a
// disc whose radius grows with the weight — the §V density encoding where
// "points drawn from a dense area can be plotted with a larger legend
// size". maxWeight normalizes the radius; pass 0 to use the max of weights.
func (r *Raster) PlotWeighted(pts []geom.Point, weights []int64, maxWeight int64) (int, error) {
	if len(pts) != len(weights) {
		return 0, fmt.Errorf("render: %d points vs %d weights", len(pts), len(weights))
	}
	if maxWeight <= 0 {
		for _, w := range weights {
			if w > maxWeight {
				maxWeight = w
			}
		}
	}
	if maxWeight <= 0 {
		maxWeight = 1
	}
	n := 0
	maxRadius := float64(minInt(r.W, r.H)) / 40
	for i, p := range pts {
		x, y, ok := r.cellAt(p)
		if !ok {
			continue
		}
		n++
		// Radius ∝ sqrt(weight): disc area tracks density linearly.
		frac := math.Sqrt(float64(weights[i])) / math.Sqrt(float64(maxWeight))
		radius := frac * maxRadius
		if radius < 0.5 {
			r.cells[y*r.W+x] += float64(weights[i])
			continue
		}
		ir := int(radius + 0.5)
		mass := float64(weights[i])
		cellsInDisc := 0
		for dy := -ir; dy <= ir; dy++ {
			for dx := -ir; dx <= ir; dx++ {
				if dx*dx+dy*dy <= ir*ir {
					cellsInDisc++
				}
			}
		}
		per := mass / float64(cellsInDisc)
		for dy := -ir; dy <= ir; dy++ {
			for dx := -ir; dx <= ir; dx++ {
				if dx*dx+dy*dy > ir*ir {
					continue
				}
				cx, cy := x+dx, y+dy
				if cx < 0 || cx >= r.W || cy < 0 || cy >= r.H {
					continue
				}
				r.cells[cy*r.W+cx] += per
			}
		}
	}
	return n, nil
}

// At returns the accumulated mass in raster cell (x, y).
func (r *Raster) At(x, y int) float64 { return r.cells[y*r.W+x] }

// OccupiedCells returns how many cells hold positive mass — the quantity
// behind the "perceptual coverage" diagnostics in the experiment harness.
func (r *Raster) OccupiedCells() int {
	n := 0
	for _, c := range r.cells {
		if c > 0 {
			n++
		}
	}
	return n
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// whiteIndex is tilePalette's entry for an empty cell; entries 0..225
// are the grey levels.
const whiteIndex = 226

// tilePalette holds every colour a raster can take: grey level g at
// entry g (blue lifted so dense areas read as ink, not soot), then
// white. The entries are color.NRGBA, the PNG writer's own model, so
// writing the PLTE chunk converts nothing.
var tilePalette = func() color.Palette {
	p := make(color.Palette, whiteIndex+1)
	for g := 0; g < whiteIndex; g++ {
		p[g] = color.NRGBA{uint8(g), uint8(g), uint8(float64(g)/2 + 64), 255}
	}
	p[whiteIndex] = color.NRGBA{255, 255, 255, 255}
	return p
}()

// paint writes the raster into img, which must be W×H: log-scaled
// intensity (count grids are heavy-tailed; linear scaling blacks out
// dense plots), white for an empty cell. img's palette becomes the
// tilePalette entries the raster uses, in order of first use, so a tile
// carries its few colours rather than all 227 (a full PLTE chunk is
// 693 bytes, most of a typical tile).
func (r *Raster) paint(img *image.Paletted) {
	var maxMass float64
	for _, c := range r.cells {
		if c > maxMass {
			maxMass = c
		}
	}
	logMax := math.Log1p(maxMass)
	var slot [whiteIndex + 1]uint8 // tilePalette entry → img index + 1
	img.Palette = img.Palette[:0]
	// A disc spreads equal mass over its cells, so runs of one value are
	// common: the last index is reused rather than recomputed.
	last, idx := math.NaN(), uint8(0)
	for i, c := range r.cells {
		if c != last {
			last = c
			g := uint8(whiteIndex)
			if c != 0 {
				v := 1.0
				if logMax > 0 {
					v = math.Log1p(c) / logMax
				}
				g = uint8(225 - 225*v)
			}
			if slot[g] == 0 {
				img.Palette = append(img.Palette, tilePalette[g])
				slot[g] = uint8(len(img.Palette))
			}
			idx = slot[g] - 1
		}
		img.Pix[i] = idx
	}
}

// Image renders the raster to a grey-on-white paletted image.
func (r *Raster) Image() *image.Paletted {
	img := image.NewPaletted(image.Rect(0, 0, r.W, r.H), nil)
	r.paint(img)
	return img
}

// WritePNG encodes the raster image as a palette PNG. An all-empty
// raster writes the one tile encoded for its size; any other borrows a
// pooled image. The bytes depend on the cells alone.
func (r *Raster) WritePNG(w io.Writer) error {
	if r.empty() {
		b, err := emptyTile(r.W, r.H)
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	}
	pool := poolFor(&imagePools, size{r.W, r.H})
	img, _ := pool.Get().(*image.Paletted)
	if img == nil {
		img = image.NewPaletted(image.Rect(0, 0, r.W, r.H), make(color.Palette, 0, whiteIndex+1))
	}
	r.paint(img)
	err := encoder.Encode(w, img)
	pool.Put(img)
	return err
}

func (r *Raster) empty() bool {
	for _, c := range r.cells {
		if c != 0 {
			return false
		}
	}
	return true
}

// Release hands the raster's cells back for the next NewRaster of its
// size. The raster must not be used afterwards; one never released is
// left to the GC.
func (r *Raster) Release() {
	if r.pooled == nil {
		return
	}
	poolFor(&cellPools, size{r.W, r.H}).Put(r.pooled)
	r.pooled, r.cells = nil, nil
}

// encoder is the one PNG encoder behind every plot: BestSpeed, because a
// tile is mostly white and default compression spends its time finding
// little more, and a pooled EncoderBuffer, so the zlib writer (≈ 1 MB
// of state) is reused rather than allocated per tile.
var encoder = png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: new(bufferPool)}

type bufferPool struct{ p sync.Pool }

func (b *bufferPool) Get() *png.EncoderBuffer {
	e, _ := b.p.Get().(*png.EncoderBuffer)
	return e
}

func (b *bufferPool) Put(e *png.EncoderBuffer) { b.p.Put(e) }

// size keys the per-size pools and the empty-tile cache.
type size struct{ w, h int }

// cellPools and imagePools map a size to a *sync.Pool of its *[]float64
// cell grids and *image.Paletted images. Only sync.Pool holds them, so
// idle buffers are freed within two collections.
var cellPools, imagePools sync.Map

func poolFor(pools *sync.Map, k size) *sync.Pool {
	if p, ok := pools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(k, new(sync.Pool))
	return p.(*sync.Pool)
}

// emptyTiles maps a size to the PNG bytes of its all-white tile.
var emptyTiles sync.Map

func emptyTile(w, h int) ([]byte, error) {
	k := size{w, h}
	if b, ok := emptyTiles.Load(k); ok {
		return b.([]byte), nil
	}
	img := image.NewPaletted(image.Rect(0, 0, w, h), color.Palette{tilePalette[whiteIndex]})
	var buf bytes.Buffer
	if err := encoder.Encode(&buf, img); err != nil {
		return nil, err
	}
	b, _ := emptyTiles.LoadOrStore(k, buf.Bytes())
	return b.([]byte), nil
}

// MapPlot renders a value-colored map plot (Fig. 1 style): each point
// carries a scalar (altitude) encoded as color. Points are binned; each
// bin shows the mean value of its points.
type MapPlot struct {
	W, H     int
	Viewport geom.Rect
	sum      []float64
	count    []int
}

// NewMapPlot returns an empty map plot canvas.
func NewMapPlot(viewport geom.Rect, w, h int) *MapPlot {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: map plot size must be positive, got %dx%d", w, h))
	}
	if viewport.IsEmpty() {
		panic("render: empty viewport")
	}
	return &MapPlot{W: w, H: h, Viewport: viewport, sum: make([]float64, w*h), count: make([]int, w*h)}
}

// Plot accumulates points with values; pts and values must be parallel.
func (m *MapPlot) Plot(pts []geom.Point, values []float64) error {
	if len(pts) != len(values) {
		return fmt.Errorf("render: %d points vs %d values", len(pts), len(values))
	}
	r := Raster{W: m.W, H: m.H, Viewport: m.Viewport}
	for i, p := range pts {
		x, y, ok := r.cellAt(p)
		if !ok {
			continue
		}
		m.sum[y*m.W+x] += values[i]
		m.count[y*m.W+x]++
	}
	return nil
}

// Image renders with a blue→green→red value ramp on white.
func (m *MapPlot) Image() *image.NRGBA {
	img := image.NewNRGBA(image.Rect(0, 0, m.W, m.H))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, c := range m.count {
		if c == 0 {
			continue
		}
		v := m.sum[i] / float64(c)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			i := y*m.W + x
			if m.count[i] == 0 {
				img.SetNRGBA(x, y, color.NRGBA{255, 255, 255, 255})
				continue
			}
			t := ((m.sum[i] / float64(m.count[i])) - lo) / span
			img.SetNRGBA(x, y, ramp(t))
		}
	}
	return img
}

// ramp maps t∈[0,1] to a blue→green→red color.
func ramp(t float64) color.NRGBA {
	t = geom.Clamp(t, 0, 1)
	switch {
	case t < 0.5:
		u := t * 2
		return color.NRGBA{uint8(40 * u), uint8(90 + 130*u), uint8(200 * (1 - u)), 255}
	default:
		u := (t - 0.5) * 2
		return color.NRGBA{uint8(40 + 215*u), uint8(220 * (1 - u)), 20, 255}
	}
}

// WritePNG encodes the map plot as PNG.
func (m *MapPlot) WritePNG(w io.Writer) error {
	return encoder.Encode(w, m.Image())
}

// ZoomViewport returns a viewport covering the sub-rectangle of bounds at
// the given zoom factor centred on c: a factor of 4 shows 1/4 of each axis.
// It returns an error for factors < 1, rather than silently zooming out.
func ZoomViewport(bounds geom.Rect, c geom.Point, factor float64) (geom.Rect, error) {
	if factor < 1 {
		return geom.Rect{}, errors.New("render: zoom factor must be >= 1")
	}
	w := bounds.Width() / factor
	h := bounds.Height() / factor
	v := geom.Rect{
		MinX: c.X - w/2, MaxX: c.X + w/2,
		MinY: c.Y - h/2, MaxY: c.Y + h/2,
	}
	// Clamp inside bounds so a zoom near the edge stays on-data.
	if v.MinX < bounds.MinX {
		v.MinX, v.MaxX = bounds.MinX, bounds.MinX+w
	}
	if v.MaxX > bounds.MaxX {
		v.MinX, v.MaxX = bounds.MaxX-w, bounds.MaxX
	}
	if v.MinY < bounds.MinY {
		v.MinY, v.MaxY = bounds.MinY, bounds.MinY+h
	}
	if v.MaxY > bounds.MaxY {
		v.MinY, v.MaxY = bounds.MaxY-h, bounds.MaxY
	}
	return v, nil
}
