package render

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// nrgbaImage is the renderer tiles had before they became palette PNGs:
// one NRGBA pixel per cell, set one at a time. Encoded with png.Encode,
// it is the oracle the palette path's decoded pixels must equal.
func nrgbaImage(r *Raster) *image.NRGBA {
	img := image.NewNRGBA(image.Rect(0, 0, r.W, r.H))
	var maxMass float64
	for _, c := range r.cells {
		if c > maxMass {
			maxMass = c
		}
	}
	logMax := math.Log1p(maxMass)
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			c := r.cells[y*r.W+x]
			if c == 0 {
				img.SetNRGBA(x, y, color.NRGBA{255, 255, 255, 255})
				continue
			}
			v := 1.0
			if logMax > 0 {
				v = math.Log1p(c) / logMax
			}
			g := uint8(225 - 225*v)
			img.SetNRGBA(x, y, color.NRGBA{g, g, uint8(float64(g)/2 + 64), 255})
		}
	}
	return img
}

// clustered returns n seeded points, most of them in a few tight
// clusters, so cell masses span orders of magnitude as real tiles do.
func clustered(rng *rand.Rand, n int) []geom.Point {
	centres := []geom.Point{geom.Pt(0.3, 0.3), geom.Pt(0.7, 0.6), geom.Pt(0.5, 0.9)}
	pts := make([]geom.Point, n)
	for i := range pts {
		if i%4 == 0 {
			pts[i] = geom.Pt(rng.Float64(), rng.Float64())
			continue
		}
		c := centres[i%len(centres)]
		pts[i] = geom.Pt(c.X+rng.NormFloat64()*0.03, c.Y+rng.NormFloat64()*0.03)
	}
	return pts
}

// seededWeights returns heavy-tailed density weights in [1, 5000].
func seededWeights(rng *rand.Rand, n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1 + int64(math.Exp(rng.Float64()*math.Log(5000)))
	}
	return w
}

// tileCase names one raster the palette path is checked on.
type tileCase struct {
	name string
	w, h int
	fill func(r *Raster)
}

func tileCases() []tileCase {
	var cases []tileCase
	for _, sz := range [][2]int{{16, 16}, {64, 64}, {256, 256}, {1024, 1024}, {37, 91}} {
		w, h := sz[0], sz[1]
		seed := int64(w*1000 + h)
		add := func(kind string, fill func(r *Raster)) {
			cases = append(cases, tileCase{fmt.Sprintf("%dx%d/%s", w, h, kind), w, h, fill})
		}
		add("plot", func(r *Raster) {
			r.Plot(clustered(rand.New(rand.NewSource(seed)), 4000))
		})
		add("weighted", func(r *Raster) {
			rng := rand.New(rand.NewSource(seed + 1))
			pts := clustered(rng, 1000)
			if _, err := r.PlotWeighted(pts, seededWeights(rng, len(pts)), 0); err != nil {
				panic(err)
			}
		})
		add("empty", func(r *Raster) {})
		add("one-point", func(r *Raster) { r.Plot([]geom.Point{geom.Pt(0.4, 0.6)}) })
		add("uniform", func(r *Raster) {
			// One point at every cell's centre: every cell holds the
			// maximum, so v is exactly 1 everywhere.
			pts := make([]geom.Point, 0, w*h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					pts = append(pts, geom.Pt((float64(x)+0.5)/float64(w), (float64(y)+0.5)/float64(h)))
				}
			}
			if got := r.Plot(pts); got != w*h {
				panic(fmt.Sprintf("uniform fill plotted %d of %d", got, w*h))
			}
		})
	}
	return cases
}

func decodePNG(t *testing.T, b []byte) image.Image {
	t.Helper()
	img, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return img
}

// renderTile renders c through the pooled path: NewRaster, WritePNG,
// Release.
func renderTile(c tileCase) ([]byte, error) {
	r := NewRaster(unitViewport(), c.w, c.h)
	c.fill(r)
	var buf bytes.Buffer
	err := r.WritePNG(&buf)
	r.Release()
	return buf.Bytes(), err
}

// TestTilePixelsMatchNRGBA: every decoded pixel of a palette tile equals
// the NRGBA renderer's, on seeded point and weighted (disc) plots, the
// empty raster, a single point and the all-cells-equal logMax edge, at
// square and non-square sizes; and the tile's palette is exactly the
// colours its pixels use.
func TestTilePixelsMatchNRGBA(t *testing.T) {
	for _, c := range tileCases() {
		t.Run(c.name, func(t *testing.T) {
			r := NewRaster(unitViewport(), c.w, c.h)
			c.fill(r)
			var want bytes.Buffer
			if err := png.Encode(&want, nrgbaImage(r)); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := r.WritePNG(&got); err != nil {
				t.Fatal(err)
			}
			a, b := decodePNG(t, want.Bytes()), decodePNG(t, got.Bytes())
			if a.Bounds() != b.Bounds() {
				t.Fatalf("bounds %v, want %v", b.Bounds(), a.Bounds())
			}
			used := map[color.Color]bool{}
			for y := 0; y < c.h; y++ {
				for x := 0; x < c.w; x++ {
					ca, cb := color.RGBAModel.Convert(a.At(x, y)), color.RGBAModel.Convert(b.At(x, y))
					if ca != cb {
						t.Fatalf("pixel (%d,%d) = %v, want %v (mass %v)", x, y, cb, ca, r.At(x, y))
					}
					used[ca] = true
				}
			}
			// The tile carries the colours it uses and no others.
			p, ok := b.(*image.Paletted)
			if !ok {
				t.Fatalf("decoded %T, want *image.Paletted", b)
			}
			if len(p.Palette) != len(used) {
				t.Fatalf("palette of %d colours, %d used", len(p.Palette), len(used))
			}
		})
	}
}

// TestEmptyTileIsFreshEncode: the cached empty tile is the bytes the
// shared encoder writes for a freshly painted empty raster.
func TestEmptyTileIsFreshEncode(t *testing.T) {
	for _, sz := range [][2]int{{16, 16}, {256, 256}, {37, 91}} {
		r := NewRaster(unitViewport(), sz[0], sz[1])
		var fresh bytes.Buffer
		if err := encoder.Encode(&fresh, r.Image()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			var cached bytes.Buffer
			if err := r.WritePNG(&cached); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cached.Bytes(), fresh.Bytes()) {
				t.Fatalf("%dx%d: cached empty tile (%d B) differs from a fresh encode (%d B)",
					sz[0], sz[1], cached.Len(), fresh.Len())
			}
		}
		r.Release()
	}
}

// TestTileEncodeConcurrent: tiles rendered by eight goroutines at once,
// sharing the pools, the encoder and the empty-tile cache, are byte for
// byte the serial renders.
func TestTileEncodeConcurrent(t *testing.T) {
	var cases []tileCase
	for _, c := range tileCases() {
		if c.w <= 256 {
			cases = append(cases, c)
		}
	}
	want := make([][]byte, len(cases))
	for i, c := range cases {
		b, err := renderTile(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(cases))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range cases {
				i := (j + g) % len(cases) // each worker in its own order
				if got, err := renderTile(cases[i]); err != nil || !bytes.Equal(got, want[i]) {
					errs <- fmt.Sprintf("worker %d: %s differs from the serial render (err %v)", g, cases[i].name, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// tileAllocCeiling is the allocation count of one steady-state weighted
// 256² tile (NewRaster, PlotWeighted, WritePNG, Release), measured at
// 2 and pinned: the Raster struct, and the palette boxed when the PNG
// writer asks the image for its colour model. The rest — cells, image,
// zlib state — comes from the pools.
const tileAllocCeiling = 2

// TestTileEncodeAllocs locks the pooled tile path's allocation count.
func TestTileEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under -race")
	}
	rng := rand.New(rand.NewSource(7))
	pts := clustered(rng, 1000)
	weights := seededWeights(rng, len(pts))
	var buf bytes.Buffer
	tile := func() {
		r := NewRaster(unitViewport(), 256, 256)
		if _, err := r.PlotWeighted(pts, weights, 0); err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := r.WritePNG(&buf); err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	tile() // warm the pools and buf
	if got := testing.AllocsPerRun(50, tile); got > tileAllocCeiling {
		t.Fatalf("weighted 256² tile: %v allocs, ceiling %d", got, tileAllocCeiling)
	}
}

// BenchmarkTileEncode measures plot + encode + release of seeded
// weighted 256² tiles, and of the empty tile.
func BenchmarkTileEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	type input struct {
		pts     []geom.Point
		weights []int64
	}
	inputs := make([]input, 16)
	for i := range inputs {
		pts := clustered(rng, 200+rng.Intn(1500))
		inputs[i] = input{pts, seededWeights(rng, len(pts))}
	}
	var buf bytes.Buffer
	b.Run("weighted", func(b *testing.B) {
		b.ReportAllocs()
		var bytesOut int
		for i := 0; i < b.N; i++ {
			in := inputs[i%len(inputs)]
			r := NewRaster(unitViewport(), 256, 256)
			if _, err := r.PlotWeighted(in.pts, in.weights, 0); err != nil {
				b.Fatal(err)
			}
			buf.Reset()
			if err := r.WritePNG(&buf); err != nil {
				b.Fatal(err)
			}
			r.Release()
			bytesOut += buf.Len()
		}
		b.ReportMetric(float64(bytesOut)/float64(b.N), "B/tile")
	})
	b.Run("empty", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := NewRaster(unitViewport(), 256, 256)
			buf.Reset()
			if err := r.WritePNG(&buf); err != nil {
				b.Fatal(err)
			}
			r.Release()
		}
	})
}
