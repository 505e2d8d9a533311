package store

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/geom"
)

// The spatial index is a uniform grid (adapted from internal/grid, which
// keeps per-cell point slices; here the layout is a compact CSR packing
// of row ids) binned over one (x, y) column pair. It is immutable: built
// against one generation of column storage and published atomically with
// it, so a reader's snapshot always pairs columns with the index that was
// built from exactly those columns.
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
// a rect probe that emits row ids through the selection-vector kernels,
// zone-map pruning and bulk emission, a delta for post-build appends, and
// the identity/stats accessors the generation machinery and /metrics
// consume. Two implementations exist: rectIndex (the uniform CSR grid)
// and treeIndex (the packed STR R-tree, treeindex.go, on
// internal/strtree's layout). Implementations are immutable after
// construction except for their delta side structure, matching the
// generation-publish model.
type spatialIndex interface {
	// pair returns the (x, y) column ordinals the index is built over.
	pair() (xi, yi int)
	// rows returns how many rows the index covers; rows at or beyond it
	// take the table's unindexed tail path.
	rows() int
	// extent returns the finite bounding rectangle of the binned rows
	// (empty when nothing was binnable).
	extent() geom.Rect
	// extraCount returns how many indexed rows have a non-finite
	// coordinate (they are filtered per probe, outside the structure).
	extraCount() int
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
	// collect returns the sorted ids of indexed rows inside r that
	// satisfy every residual predicate; see rectIndex.collect for the
	// exact contract. cn (nil = never canceled) is polled at cell-row /
	// leaf boundaries; a canceled collect returns early with a partial
	// id set, which the caller discards once it sees the context error.
	collect(cols [][]float64, r geom.Rect, preds []Pred, pi []int, skip []bool, tally *zoneTally, st *ScanStats, cn *canceler) []int
	// deltaIdx returns the mutable delta absorbing post-build appends.
	deltaIdx() *deltaIndex
}

// gridGeom is the shared grid geometry both backends carry: the identity
// of the indexed pair, the covered row count, and the uniform binning
// the delta index uses to bucket appended rows. For the grid backend it
// is also the probe geometry; for the tree backend it exists purely so
// deltas (and their zone maps) work identically under either backend.
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

// sizeGrid stretches the uniform grid over bounds for n rows: dim² cells
// targeting indexTargetRowsPerCell rows each, with degenerate axes (all
// rows on a line) given a positive step so cell arithmetic stays
// well-defined; same convention as grid.New.
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
// sort over ascending rows).
type rectIndex struct {
	gridGeom
	cellOff []int32
	rowID   []int32
	// extra holds rows (ascending) with a non-finite coordinate: NaN
	// compares false against every bound and so matches every range
	// predicate, and ±Inf defeats the cell arithmetic, so such rows
	// cannot be binned — they are filtered per probe like boundary
	// cells. Keeping them out of the grid preserves the index for the
	// finite bulk of a dirty dataset instead of refusing to index it.
	extra []int32

	// occP99 and occSkew are the build-time occupancy statistics the
	// backend planner consulted (p99 cell population, and its ratio to
	// the mean); exported through IndexStats.PerTable.
	occP99, occSkew float64

	// Zone maps: per (column, cell) min/max over the binned rows, laid
	// out flat as [col·cells + cell], built in the same pass (and
	// published in the same generation) as the CSR packing. They let a
	// probe with residual predicates prune whole cells (every row
	// provably fails) or bulk-emit them (every row provably passes)
	// without touching per-row data. znan records cells holding a NaN in
	// that column: NaN matches every range predicate, so such cells can
	// never be pruned by it — though they can still be bulk-emitted,
	// since the NaN rows pass trivially and the min/max (which exclude
	// NaN) bound every other row.
	zmin, zmax []float64
	znan       []bool

	// delta accumulates rows appended after this index was built (see
	// delta.go): a mutable, independently locked side structure sharing
	// the grid geometry. The rectIndex itself stays immutable; the delta
	// pointer is set once at construction.
	delta *deltaIndex
}

// buildRectIndex indexes the n-row (xi, yi) pair of cols, building zone
// maps over every column of the generation in the same pass. It returns
// a valid, empty-probing index for n == 0 (so later appends still take
// the tail path), and nil when the table is too large for the int32 row
// ids.
func buildRectIndex(xi, yi int, cols [][]float64, n int) *rectIndex {
	if n > math.MaxInt32 {
		return nil
	}
	xs, ys := cols[xi], cols[yi]
	ix := &rectIndex{gridGeom: gridGeom{xi: xi, yi: yi, n: n, bounds: geom.EmptyRect()}}
	ix.delta = newDeltaIndex(&ix.gridGeom, len(cols))
	if n == 0 {
		return ix
	}
	for i := 0; i < n; i++ {
		x, y := xs[i], ys[i]
		if !isFinite(x) || !isFinite(y) {
			ix.extra = append(ix.extra, int32(i))
			continue
		}
		ix.bounds = ix.bounds.UnionPoint(geom.Pt(x, y))
	}
	if len(ix.extra) == n {
		// Nothing finite to bin; every probe is an extras filter, which
		// is just a slower linear scan.
		return nil
	}
	if ix.bounds.IsEmpty() {
		// Unreachable (some row was finite), but a grid over an empty
		// extent must never be built.
		return nil
	}
	ix.sizeGrid(n)
	// Counting sort rows into cells: count, prefix-sum, place. Iterating
	// rows ascending keeps each cell's run ascending. Non-finite rows
	// (already collected into extra) are skipped.
	cells := ix.nx * ix.ny
	counts := make([]int32, cells+1)
	cellOf := make([]int32, n)
	for i := 0; i < n; i++ {
		x, y := xs[i], ys[i]
		if !isFinite(x) || !isFinite(y) {
			cellOf[i] = -1
			continue
		}
		c := ix.cellIndex(x, y)
		cellOf[i] = c
		counts[c+1]++
	}
	ix.occP99, ix.occSkew = occFromCounts(counts[1:], n-len(ix.extra))
	for c := 1; c <= cells; c++ {
		counts[c] += counts[c-1]
	}
	ix.cellOff = counts
	ix.rowID = make([]int32, n-len(ix.extra))
	cursor := make([]int32, cells)
	copy(cursor, counts[:cells])
	for i := 0; i < n; i++ {
		c := cellOf[i]
		if c < 0 {
			continue
		}
		ix.rowID[cursor[c]] = int32(i)
		cursor[c]++
	}
	// Zone maps for every column, so residual predicates on any column —
	// not just the indexed pair — can prune. Memory is ncols·cells·17
	// bytes ≈ 0.27·ncols bytes per row at the 64-rows/cell target.
	ncols := len(cols)
	ix.zmin = make([]float64, ncols*cells)
	ix.zmax = make([]float64, ncols*cells)
	ix.znan = make([]bool, ncols*cells)
	for zi := range ix.zmin {
		ix.zmin[zi] = math.Inf(1)
		ix.zmax[zi] = math.Inf(-1)
	}
	for ci, col := range cols {
		zbase := ci * cells
		for i := 0; i < n; i++ {
			c := cellOf[i]
			if c < 0 {
				continue
			}
			v := col[i]
			if math.IsNaN(v) {
				ix.znan[zbase+int(c)] = true
				continue
			}
			if v < ix.zmin[zbase+int(c)] {
				ix.zmin[zbase+int(c)] = v
			}
			if v > ix.zmax[zbase+int(c)] {
				ix.zmax[zbase+int(c)] = v
			}
		}
	}
	return ix
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// cellCoords returns the (col, row) cell of (x, y), clamped into the
// grid like grid.CellOf. Clamping happens in the float domain BEFORE
// the int conversion: a coordinate far outside the bounds (query
// viewports arrive from the network; 1e300 or ±Inf are representable)
// would overflow the conversion — float→int of an out-of-range value
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

// zoneTally is the per-predicate zone-consult record one probe
// accumulates for the adaptive planner: eval counts cells where the
// predicate's zone was consulted, decisive the consults that pruned the
// cell or settled the predicate as all-pass. Slices are indexed by
// predicate position, nil when the probe carries no predicates.
type zoneTally struct {
	eval, decisive []int64
}

// collect returns the sorted ids of indexed rows inside r that satisfy
// every residual predicate (preds[k] over column pi[k], bounds already
// NaN-normalized; skip[k] marks predicates whose zone checks the
// adaptive planner disabled). Cells of one grid row are contiguous in
// the CSR packing, so cells that are both geometrically covered
// (strictly inside the touched range, with the combined row span
// contained in r) and zone-covered (every predicate's zone proves all
// rows pass) are emitted as bulk runs with no per-point tests; the
// boundary ring and cells whose zones are inconclusive are filtered per
// point, evaluating only the predicates the zone could not settle.
// Cells whose zone proves no row can match are pruned without reading a
// single row. The strictly-interior requirement (on top of the
// geometric containment check) leaves a one-cell margin that absorbs
// the float rounding slack between a point's binned cell and its true
// coordinates, keeping collect equivalent to the linear predicate scan.
func (ix *rectIndex) collect(cols [][]float64, r geom.Rect, preds []Pred, pi []int, skip []bool, tally *zoneTally, st *ScanStats, cn *canceler) []int {
	if ix.n == 0 {
		return nil
	}
	var ids []int
	if r.Intersects(ix.bounds) {
		ids = ix.collectCells(cols, r, preds, pi, skip, tally, st, cn)
	}
	// A canceled probe's partial ids are discarded by the caller; skip
	// the extras pass and the sort, which alone can outlast the
	// cancellation bound on a million-row result.
	if cn.cause() != nil {
		return nil
	}
	// Non-finite rows live outside the grid; filter them with the same
	// predicate form the linear scan uses (NaN matches everything, ±Inf
	// matches nothing finite). Zone maps do not cover them, so every
	// predicate is evaluated.
	xs, ys := cols[ix.xi], cols[ix.yi]
	for _, id := range ix.extra {
		st.RowsExamined++
		if inRect(xs[id], ys[id], r) && matchPreds(cols, pi, preds, int(id)) {
			ids = append(ids, int(id))
		}
	}
	// Runs are ascending within a cell but interleave across cells (and
	// with extras); one sort restores global row order (ScanRect's
	// contract, and what the ScanRect ≡ Scan property test checks).
	slices.Sort(ids)
	return ids
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

// collectCells gathers the grid-binned rows inside r passing preds
// (unsorted across cells), accumulating zone-map statistics into st and
// per-predicate consult tallies into tally. Probes whose touched cells
// bound at least parallelScanMinRows rows are sharded across CPUs by
// grid row (cells of one grid row are contiguous in the CSR packing, so
// shards are disjoint contiguous id runs); per-shard buffers are
// concatenated in cell order and per-shard stats merged, which keeps the
// parallel probe bit-identical to the serial one.
func (ix *rectIndex) collectCells(cols [][]float64, r geom.Rect, preds []Pred, pi []int, skip []bool, tally *zoneTally, st *ScanStats, cn *canceler) []int {
	c0, r0 := ix.cellCoords(r.MinX, r.MinY)
	c1, r1 := ix.cellCoords(r.MaxX, r.MaxY)
	// Upper-bound the result size in one pass over the touched cell rows
	// so the ids buffer is allocated at most once per shard.
	var bound int32
	for row := r0; row <= r1; row++ {
		base := row * ix.nx
		bound += ix.cellOff[base+c1+1] - ix.cellOff[base+c0]
	}
	st.CellsTouched += (r1 - r0 + 1) * (c1 - c0 + 1)
	if bound == 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if rows := r1 - r0 + 1; workers > rows {
		workers = rows
	}
	if int(bound) < parallelScanMinRows || workers <= 1 {
		st.ProbeShards++
		ids := make([]int, 0, bound)
		return ix.collectRows(cols, r, preds, pi, skip, r0, r1, c0, c1, r0, r1, tally, st, ids, cn)
	}
	// Partition the touched grid rows into contiguous shards balanced by
	// their bounded row counts (cell population is skewed, so equal row
	// ranges would not give equal work).
	type shard struct {
		rlo, rhi int
		bound    int32
		ids      []int
		st       ScanStats
		tally    zoneTally
	}
	shards := make([]shard, 0, workers)
	var acc int32
	rlo := r0
	for row := r0; row <= r1; row++ {
		base := row * ix.nx
		acc += ix.cellOff[base+c1+1] - ix.cellOff[base+c0]
		remainingRows := r1 - row
		if (acc >= bound/int32(workers) && len(shards) < workers-1 && remainingRows > 0) || row == r1 {
			shards = append(shards, shard{rlo: rlo, rhi: row, bound: acc})
			rlo = row + 1
			acc = 0
		}
	}
	var wg sync.WaitGroup
	for i := range shards {
		s := &shards[i]
		if len(preds) > 0 {
			s.tally.eval = make([]int64, len(preds))
			s.tally.decisive = make([]int64, len(preds))
		}
		wg.Add(1)
		// Probe-shard boundary: each shard forks the canceler (its tick
		// counter is unsynchronized) and polls it per grid row.
		go func(cn *canceler) {
			defer wg.Done()
			ids := make([]int, 0, s.bound)
			s.ids = ix.collectRows(cols, r, preds, pi, skip, s.rlo, s.rhi, c0, c1, r0, r1, &s.tally, &s.st, ids, cn)
		}(cn.fork())
	}
	wg.Wait()
	total := 0
	for i := range shards {
		s := &shards[i]
		total += len(s.ids)
		st.CellsPruned += s.st.CellsPruned
		st.CellsBulk += s.st.CellsBulk
		st.RowsExamined += s.st.RowsExamined
		st.BatchedRows += s.st.BatchedRows
		st.ProbeShards++
		for k := range preds {
			tally.eval[k] += s.tally.eval[k]
			tally.decisive[k] += s.tally.decisive[k]
		}
	}
	ids := make([]int, 0, total)
	for i := range shards {
		ids = append(ids, shards[i].ids...)
	}
	return ids
}

// collectRows is the per-shard body of collectCells: it gathers grid
// rows rlo..rhi of the touched cell range, where r0/r1/c0/c1 describe
// the full touched range (the strict-interior test for geometric span
// coverage is relative to the whole probe, not the shard).
func (ix *rectIndex) collectRows(cols [][]float64, r geom.Rect, preds []Pred, pi []int, skip []bool, rlo, rhi, c0, c1, r0, r1 int, tally *zoneTally, st *ScanStats, ids []int, cn *canceler) []int {
	xs, ys := cols[ix.xi], cols[ix.yi]
	cells := ix.nx * ix.ny
	// residual collects, per cell, the predicates the zone map could not
	// settle; the buffers (and the selection vector) are reused across
	// cells.
	residual := make([]Pred, 0, len(preds))
	residualCols := make([]int, 0, len(preds))
	var sel []int32
	for row := rlo; row <= rhi; row++ {
		// One counter-gated poll per touched grid row; a canceled probe
		// returns partial ids the entry point will discard.
		if cn.stop() {
			return ids
		}
		base := row * ix.nx
		// Geometric coverage of this grid row's strict interior: cells
		// c0+1..c1-1 emitted without the per-point rectangle test when
		// their combined rectangle is contained in r.
		spanCovered := false
		if row > r0 && row < r1 && c0+1 <= c1-1 {
			span := geom.Rect{
				MinX: ix.bounds.MinX + float64(c0+1)*ix.cellW,
				MinY: ix.bounds.MinY + float64(row)*ix.cellH,
				MaxX: ix.bounds.MinX + float64(c1)*ix.cellW,
				MaxY: ix.bounds.MinY + float64(row+1)*ix.cellH,
			}
			spanCovered = r.ContainsRect(span)
		}
		for c := c0; c <= c1; c++ {
			lo, hi := ix.cellOff[base+c], ix.cellOff[base+c+1]
			if lo == hi {
				continue
			}
			pruned := false
			residual = residual[:0]
			residualCols = residualCols[:0]
			for k := range preds {
				p := preds[k]
				// The adaptive planner proved this column's zones
				// useless here; evaluate the predicate per row without
				// loading its zone entries.
				if skip != nil && skip[k] {
					residual = append(residual, p)
					residualCols = append(residualCols, pi[k])
					continue
				}
				zi := pi[k]*cells + base + c
				tally.eval[k]++
				// Prune: every non-NaN row is outside [Min, Max], and no
				// NaN row (which would match anything) is present.
				if !ix.znan[zi] && (ix.zmax[zi] < p.Min || ix.zmin[zi] > p.Max) {
					tally.decisive[k]++
					pruned = true
					break
				}
				// All-pass: the cell's whole value range sits inside
				// [Min, Max] (NaN rows pass any range predicate, so they
				// do not disturb this). Anything else is inconclusive
				// and must be tested per row.
				if !(ix.zmin[zi] >= p.Min && ix.zmax[zi] <= p.Max) {
					residual = append(residual, p)
					residualCols = append(residualCols, pi[k])
				} else {
					tally.decisive[k]++
				}
			}
			if pruned {
				st.CellsPruned++
				continue
			}
			needRect := !(spanCovered && c > c0 && c < c1)
			run := ix.rowID[lo:hi]
			if !needRect && len(residual) == 0 {
				st.CellsBulk++
				ids = appendSel(ids, run)
				continue
			}
			if len(run) >= kernelMinRows && !forceScalarKernels {
				// Batched cell: seed a selection from the run — fused
				// rectangle test for the boundary ring, first residual
				// predicate for zone-inconclusive interior cells — then
				// refine in place with the remaining predicates.
				if cap(sel) < len(run) {
					sel = make([]int32, len(run))
				}
				s := sel[:len(run)]
				var k int
				ri := 0
				if needRect {
					k = selRectGather(s, run, xs, ys, r)
				} else {
					k = selGather(s, run, cols[residualCols[0]], residual[0].Min, residual[0].Max)
					ri = 1
				}
				for ; ri < len(residual) && k > 0; ri++ {
					k = selRefine(s[:k], cols[residualCols[ri]], residual[ri].Min, residual[ri].Max)
				}
				st.RowsExamined += len(run)
				st.BatchedRows += len(run)
				ids = appendSel(ids, s[:k])
				continue
			}
			if len(residual) == 1 {
				// The dominant filtered-probe case (one zone-
				// inconclusive predicate): hoist the column and bounds
				// out of the per-row loop.
				rc := cols[residualCols[0]]
				pmin, pmax := residual[0].Min, residual[0].Max
				for _, id := range ix.rowID[lo:hi] {
					st.RowsExamined++
					if needRect && !inRect(xs[id], ys[id], r) {
						continue
					}
					if v := rc[id]; v < pmin || v > pmax {
						continue
					}
					ids = append(ids, int(id))
				}
				continue
			}
			for _, id := range ix.rowID[lo:hi] {
				st.RowsExamined++
				if needRect && !inRect(xs[id], ys[id], r) {
					continue
				}
				if matchPreds(cols, residualCols, residual, int(id)) {
					ids = append(ids, int(id))
				}
			}
		}
	}
	return ids
}

// coversAll reports whether r contains every indexed row trivially — the
// full-extent fast path: the caller can answer with a dense range and
// never touch per-row data. Non-finite rows sit outside the bounds, so
// their presence disables the shortcut.
func (ix *rectIndex) coversAll(r geom.Rect) bool {
	return ix.n > 0 && len(ix.extra) == 0 && r.ContainsRect(ix.bounds)
}

// stats accumulation for /metrics.
func (ix *rectIndex) cells() int {
	return ix.nx * ix.ny
}

func (ix *rectIndex) extraCount() int         { return len(ix.extra) }
func (ix *rectIndex) backend() string         { return BackendGrid }
func (ix *rectIndex) occ() (float64, float64) { return ix.occP99, ix.occSkew }
func (ix *rectIndex) deltaIdx() *deltaIndex   { return ix.delta }
