package store

import (
	"math"

	"repro/internal/geom"
)

// The spatial index is a uniform grid, a compact CSR packing of row ids
// per cell, binned over one (x, y) column pair. It is immutable: built
// against one generation of column storage and published atomically
// with it, so a reader's view always pairs columns with the index that
// was built from exactly those columns.
const (
	// indexTargetRowsPerCell sizes the grid so an average cell holds
	// about this many rows: fine enough that a 1% viewport touches a
	// small fraction of the table, coarse enough that covered cells
	// dominate boundary cells.
	indexTargetRowsPerCell = 64
	// indexMaxDim caps the grid resolution (cells = dim²).
	indexMaxDim = 1024
)

// spatialIndex is what the read path needs from a spatial index backend:
// a walk that hands the units a rectangle reaches to the one run filter
// (probe.run), and the identity/stats accessors the generation machinery
// and /metrics consume. Two implementations exist: rectIndex (the
// uniform CSR grid, whose units are cells) and treeIndex (the packed STR
// R-tree, treeindex.go, on internal/strtree's layout, whose units are
// leaves). Both embed indexBase. Implementations are immutable after
// construction, matching the generation-publish model; rows appended
// after the build are the probe's tail (probe.span).
type spatialIndex interface {
	// pair returns the (x, y) column ordinals the index is built over.
	pair() (xi, yi int)
	// rows returns how many rows the index covers; rows at or beyond it
	// take the table's unindexed tail path.
	rows() int
	// extent returns the finite bounding rectangle of the binned rows
	// (empty when nothing was binnable).
	extent() geom.Rect
	// extras returns the ascending ids of indexed rows with a non-finite
	// coordinate; they belong to no unit and are filtered per probe.
	extras() []int32
	// cells returns the pruning granularity — grid cells or tree leaves —
	// for the /metrics cell gauge.
	cells() int
	// backend names the implementation ("grid" or "rtree") for stats.
	backend() string
	// occ returns the cell-occupancy p99 and skew ratio (p99 over mean)
	// measured over the build-time grid binning — the statistics the
	// backend planner chose from.
	occ() (p99, skew float64)
	// coversAll reports whether r trivially contains every indexed row,
	// enabling the dense-range fast path.
	coversAll(r geom.Rect) bool
	// collect walks the units p.r reaches and hands each to p.run,
	// which fills p.ids (empty on entry, sized here once) unsorted.
	// Extras are the caller's. p.cn is polled at grid-row / node
	// boundaries; a canceled walk stops early with a partial id set,
	// which the caller discards once it sees the context error.
	collect(p *probe)
}

// gridGeom is the uniform grid geometry both backends carry: the
// identity of the indexed pair, the covered row count, and the binning
// the occupancy statistics are measured over. For the grid backend it
// is also the probe geometry; the tree backend keeps it for the
// statistics and its snapshot form.
type gridGeom struct {
	xi, yi       int
	bounds       geom.Rect
	nx, ny       int
	cellW, cellH float64
	n            int // rows indexed; rows >= n (post-build appends) are unindexed
}

func (g *gridGeom) pair() (int, int)  { return g.xi, g.yi }
func (g *gridGeom) rows() int         { return g.n }
func (g *gridGeom) extent() geom.Rect { return g.bounds }

// indexBase is what both backends share beyond the geometry: rows with
// a non-finite coordinate and the build-time occupancy statistics.
type indexBase struct {
	gridGeom
	// extra holds rows (ascending) with a non-finite coordinate: NaN
	// compares false against every bound and so matches every range
	// predicate, and ±Inf defeats the cell arithmetic and the MBRs, so
	// such rows cannot be binned — they are filtered per probe.
	// Keeping them out of the structure preserves the index for the
	// finite bulk of a dirty dataset instead of refusing to index it.
	extra []int32
	// occP99 and occSkew are the build-time occupancy statistics the
	// backend planner consulted (p99 cell population, and its ratio to
	// the mean); exported through IndexStats.PerTable.
	occP99, occSkew float64
}

func (b *indexBase) extras() []int32         { return b.extra }
func (b *indexBase) occ() (float64, float64) { return b.occP99, b.occSkew }

// coversAll reports whether r contains every indexed row trivially — the
// full-extent fast path: the caller can answer with a dense range and
// never touch per-row data. The bounds are exact over the finite rows;
// non-finite rows sit outside them, so their presence disables the
// shortcut.
func (b *indexBase) coversAll(r geom.Rect) bool {
	return b.n > 0 && len(b.extra) == 0 && r.ContainsRect(b.bounds)
}

// binIndex is the build prologue both backends share. It records the
// rows of the n-row (xi, yi) pair with a non-finite coordinate as
// extras, stretches the grid over the finite extent, bins every finite
// row, and takes the occupancy statistics from the bins. cellOf holds
// each row's cell (-1 for an extra) and counts each cell's population.
// ok is false when the pair cannot be indexed: too many rows for the
// int32 ids, or nothing finite to bin. n == 0 yields an empty base with
// no grid, so later appends still take the tail path.
func binIndex(xi, yi int, cols [][]float64, n int) (b indexBase, cellOf, counts []int32, ok bool) {
	b.gridGeom = gridGeom{xi: xi, yi: yi, n: n, bounds: geom.EmptyRect()}
	if n > math.MaxInt32 {
		return b, nil, nil, false
	}
	if n == 0 {
		return b, nil, nil, true
	}
	xs, ys := cols[xi], cols[yi]
	for i := 0; i < n; i++ {
		if x, y := xs[i], ys[i]; isFinite(x) && isFinite(y) {
			b.bounds = b.bounds.UnionPoint(geom.Pt(x, y))
		} else {
			b.extra = append(b.extra, int32(i))
		}
	}
	if len(b.extra) == n || b.bounds.IsEmpty() {
		// Nothing finite to bin; every probe would be an extras filter,
		// which is just a slower linear scan.
		return b, nil, nil, false
	}
	b.sizeGrid(n)
	cellOf = make([]int32, n)
	counts = make([]int32, b.nx*b.ny)
	for i := 0; i < n; i++ {
		if x, y := xs[i], ys[i]; isFinite(x) && isFinite(y) {
			cellOf[i] = b.cellIndex(x, y)
			counts[cellOf[i]]++
		} else {
			cellOf[i] = -1
		}
	}
	b.occP99, b.occSkew = occFromCounts(counts, n-len(b.extra))
	return b, cellOf, counts, true
}

// sizeGrid stretches the uniform grid over bounds for n rows: dim² cells
// targeting indexTargetRowsPerCell rows each, with degenerate axes (all
// rows on a line) given a positive step so cell arithmetic stays
// well-defined.
func (g *gridGeom) sizeGrid(n int) {
	dim := int(math.Sqrt(float64(n) / indexTargetRowsPerCell))
	if dim < 1 {
		dim = 1
	}
	if dim > indexMaxDim {
		dim = indexMaxDim
	}
	g.nx, g.ny = dim, dim
	g.cellW = g.bounds.Width() / float64(dim)
	g.cellH = g.bounds.Height() / float64(dim)
	if g.cellW == 0 || math.IsNaN(g.cellW) {
		g.cellW = 1
	}
	if g.cellH == 0 || math.IsNaN(g.cellH) {
		g.cellH = 1
	}
}

// rectIndex is a grid-binned spatial index over the column pair (xi, yi)
// of one table generation. rowID packs the row ids of all cells in
// row-major cell order; cellOff[c] .. cellOff[c+1] delimit cell c's run,
// and ids are ascending within each run (the build is a stable counting
// sort over ascending rows). zones holds a zone map per (column, cell)
// over every column of the generation, built in the same pass and
// published in the same generation as the CSR packing, so residual
// predicates on any column — not just the indexed pair — can prune.
type rectIndex struct {
	indexBase
	cellOff []int32
	rowID   []int32
	zones   zoneMaps
}

// buildRectIndex packs the rows binIndex binned into the CSR grid.
func buildRectIndex(b indexBase, cols [][]float64, cellOf, counts []int32) *rectIndex {
	ix := &rectIndex{indexBase: b}
	if ix.n == 0 {
		return ix
	}
	// Counting sort rows into cells: prefix-sum, place. Iterating rows
	// ascending keeps each cell's run ascending.
	cells := len(counts)
	ix.cellOff = make([]int32, cells+1)
	for c, k := range counts {
		ix.cellOff[c+1] = ix.cellOff[c] + k
	}
	ix.rowID = make([]int32, ix.n-len(ix.extra))
	cursor := append([]int32(nil), ix.cellOff[:cells]...)
	// Memory is ncols·cells·17 bytes ≈ 0.27·ncols bytes per row at the
	// 64-rows/cell target.
	ix.zones = newZoneMaps(len(cols), cells)
	for i, c := range cellOf {
		if c < 0 {
			continue
		}
		ix.rowID[cursor[c]] = int32(i)
		cursor[c]++
		ix.zones.add(cols, int(c), i)
	}
	return ix
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// cellCoords returns the (col, row) cell of (x, y), clamped into the
// grid. Clamping happens in the float domain BEFORE the int
// conversion: a coordinate far outside the bounds (query viewports
// arrive from the network; 1e300 or ±Inf are representable) would
// overflow the conversion — float→int of an out-of-range value
// yields MinInt64 on amd64 — and clamp to the wrong edge, inverting
// cell ranges.
func (g *gridGeom) cellCoords(x, y float64) (int, int) {
	c := clampCell((x-g.bounds.MinX)/g.cellW, g.nx)
	r := clampCell((y-g.bounds.MinY)/g.cellH, g.ny)
	return c, r
}

// clampCell converts a cell-unit quotient to a cell index in [0, n).
// Negative and NaN quotients clamp to 0, quotients at or beyond n
// (including +Inf) to n-1; only in-range values reach the int
// conversion.
func clampCell(q float64, n int) int {
	if !(q > 0) {
		return 0
	}
	if q >= float64(n) {
		return n - 1
	}
	return int(q)
}

func (g *gridGeom) cellIndex(x, y float64) int32 {
	c, r := g.cellCoords(x, y)
	return int32(r*g.nx + c)
}

// inRect mirrors the linear scan's predicate form exactly (inclusive
// bounds, NaN coordinates compare false on both sides and therefore
// match), so index probes and fallback scans agree row for row.
func inRect(x, y float64, r geom.Rect) bool {
	return !(x < r.MinX || x > r.MaxX || y < r.MinY || y > r.MaxY)
}

// matchPreds reports whether row passes every predicate (preds[k] over
// column pi[k]), with the linear scan's exact comparison form: a NaN
// value compares false on both sides and therefore matches.
func matchPreds(cols [][]float64, pi []int, preds []Pred, row int) bool {
	for k := range preds {
		v := cols[pi[k]][row]
		if v < preds[k].Min || v > preds[k].Max {
			return false
		}
	}
	return true
}

// cellSpan is the clamped range of cells c0..c1 × r0..r1 a rectangle
// touches.
type cellSpan struct{ c0, r0, c1, r1 int }

func (g *gridGeom) span(r geom.Rect) cellSpan {
	c0, r0 := g.cellCoords(r.MinX, r.MinY)
	c1, r1 := g.cellCoords(r.MaxX, r.MaxY)
	return cellSpan{c0, r0, c1, r1}
}

// walkCells calls visit for every cell of s, the span of p.r, in CSR
// order, with whether the cell's rows need the per-row rectangle test.
// A cell skips it only when it is strictly interior to s and its grid
// row's interior span is contained in p.r: the one-cell margin absorbs
// the float rounding slack between a row's binned cell and its true
// coordinates, keeping probes equivalent to the linear scan, and keeps
// the grid-edge cells — the only ones that can hold rows clamped in
// from outside the bounds — always tested. p's canceler is polled once
// per grid row; a canceled walk stops.
func (g *gridGeom) walkCells(p *probe, s cellSpan, visit func(cell int, needRect bool)) {
	for row := s.r0; row <= s.r1; row++ {
		if p.cn.stop() {
			return
		}
		covered := row > s.r0 && row < s.r1 && s.c0+1 <= s.c1-1 && p.r.ContainsRect(geom.Rect{
			MinX: g.bounds.MinX + float64(s.c0+1)*g.cellW,
			MinY: g.bounds.MinY + float64(row)*g.cellH,
			MaxX: g.bounds.MinX + float64(s.c1)*g.cellW,
			MaxY: g.bounds.MinY + float64(row+1)*g.cellH,
		})
		for c := s.c0; c <= s.c1; c++ {
			visit(row*g.nx+c, !(covered && c > s.c0 && c < s.c1))
		}
	}
}

// collect hands every non-empty cell p.r touches to p.run, after one
// pass over the touched grid rows upper-bounds the result so the ids
// buffer is allocated once.
func (ix *rectIndex) collect(p *probe) {
	s := ix.span(p.r)
	var bound int32
	for row := s.r0; row <= s.r1; row++ {
		bound += ix.cellOff[row*ix.nx+s.c1+1] - ix.cellOff[row*ix.nx+s.c0]
	}
	p.st.CellsTouched += (s.r1 - s.r0 + 1) * (s.c1 - s.c0 + 1)
	if bound == 0 {
		return
	}
	p.ids = make([]int, 0, bound)
	ix.walkCells(p, s, func(cell int, needRect bool) {
		if lo, hi := ix.cellOff[cell], ix.cellOff[cell+1]; lo < hi {
			p.run(ix.rowID[lo:hi], &ix.zones, cell, needRect)
		}
	})
}

func (ix *rectIndex) cells() int      { return ix.nx * ix.ny }
func (ix *rectIndex) backend() string { return BackendGrid }
