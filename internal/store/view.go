package store

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/obs"
)

// View is one pinned generation of a table: columns, row count, spatial
// indexes, and tombstones. Every read through a View answers against
// that generation, whatever writes, deletes or compactions the table
// publishes after View returned, so the row ids a View's ScanRects
// selects are exactly the rows its Points and Gather project, and its
// LiveRows is the exact count those scans draw from.
// Take one View per request. A View is a two-word value, safe for
// concurrent use; holding it keeps its generation's storage alive.
type View struct {
	t *Table
	d *tableData
}

// View pins the table's current generation.
func (t *Table) View() View { return View{t: t, d: t.snapshot()} }

// The Table read methods below each answer from a fresh View, so two
// calls may read two generations; a caller pairing a scan with a
// projection or a count takes one View and calls both on it.

// NumRows is View().NumRows().
func (t *Table) NumRows() int { return t.View().NumRows() }

// LiveRows is View().LiveRows().
func (t *Table) LiveRows() int { return t.View().LiveRows() }

// ScanRectWhereCtx is View().ScanRects with the one rectangle r.
func (t *Table) ScanRectWhereCtx(ctx context.Context, xCol, yCol string, r geom.Rect, preds []Pred) (RowSet, ScanStats, error) {
	return t.View().ScanRects(ctx, xCol, yCol, []geom.Rect{r}, preds)
}

// ScanRectsCtx is View().ScanRects.
func (t *Table) ScanRectsCtx(ctx context.Context, xCol, yCol string, rects []geom.Rect, preds []Pred) (RowSet, ScanStats, error) {
	return t.View().ScanRects(ctx, xCol, yCol, rects, preds)
}

// NearestCtx is View().Nearest.
func (t *Table) NearestCtx(ctx context.Context, xCol, yCol string, x, y float64, k int, preds []Pred) ([]Neighbor, ScanStats, error) {
	return t.View().Nearest(ctx, xCol, yCol, x, y, k, preds)
}

// Points is View().Points.
func (t *Table) Points(xCol, yCol string, rows RowSet) ([]geom.Point, error) {
	return t.View().Points(xCol, yCol, rows)
}

// Gather is View().Gather.
func (t *Table) Gather(col string, rows RowSet) ([]float64, error) {
	return t.View().Gather(col, rows)
}

// Bounds is View().Bounds.
func (t *Table) Bounds(xCol, yCol string) (geom.Rect, error) {
	return t.View().Bounds(xCol, yCol)
}

// Gen returns the number of the view's generation. Every publish of any
// table (append, delete, load, index build, compaction, snapshot
// restore) takes the next number of one package-wide counter, so equal
// Gens mean one generation of one table.
func (v View) Gen() uint64 { return v.d.gen }

// NumRows returns the view's row count, tombstoned rows included — the
// high-water mark row ids are addressed against. Use LiveRows for the
// count a scan can actually return.
func (v View) NumRows() int { return v.d.n }

// LiveRows returns the number of rows visible to the view's reads: its
// row count minus its tombstoned set.
func (v View) LiveRows() int { return v.d.n - v.d.deadCount() }

// ScanRects is the probe entry point: it returns the rows whose
// (xCol, yCol) projection lies inside any of the rectangles (boundary
// inclusive) and that satisfy every residual predicate. Nil or empty
// rects means the full extent, one rectangle a viewport, several the
// union of viewports — a row inside two rectangles is returned once.
// Stats are summed across the per-rectangle probes.
//
// When the pair has a spatial index each rectangle is an index probe:
// per-cell zone maps prune cells no row of which can match and
// bulk-emit cells every row of which must match, so residual predicates
// are evaluated per row only on boundary cells, zone-inconclusive
// cells, non-finite extras, and the appended tail. Without an index it
// degrades to the linear scan, the same dense-range filter
// (probe.span) that serves the appended tail, run over every row. Every
// probe and scan runs on the calling goroutine.
//
// When ctx carries an obs.Trace, the index probe and the per-row
// residual work (the linear fallback, or the appended tail past the
// index) are recorded as probe and residual spans. When ctx can be
// canceled the scan polls it between rectangles and at kernel-block,
// grid-row and tree-node boundaries (counter-gated, see canceler) and
// unwinds with ctx.Err(). With neither, the nil-trace, nil-canceler
// paths neither allocate nor read the clock.
//
// Rectangle conventions, shared with Scan:
//
//   - The zero Rect means "no viewport restriction" — the same all-rows
//     answer (a dense range over the view, appended tail included) that
//     Scan returns for an empty predicate list, so one zero rectangle
//     absorbs a whole union. A degenerate point query at the origin is
//     spelled {MinX: 0, MinY: 0, MaxX: 0, MaxY: math.Copysign(0, -1)} —
//     any rectangle with at least one non-zero bit — or more naturally
//     via Scan predicates.
//   - NaN bounds (in a rectangle or in a predicate) never exclude
//     anything: every comparison against NaN is false, exactly how
//     Scan's predicates treat it, so they fold to the matching infinity.
//   - Rows with NaN coordinates or NaN predicate-column values compare
//     false against every bound and therefore match, exactly as in
//     Scan. A one-rectangle ScanRects is row-for-row equivalent to Scan
//     with the corresponding range predicates.
func (v View) ScanRects(ctx context.Context, xCol, yCol string, rects []geom.Rect, preds []Pred) (RowSet, ScanStats, error) {
	tr, cn := obs.FromContext(ctx), newCanceler(ctx)
	if len(rects) == 0 {
		return v.scanRect(tr, cn, xCol, yCol, geom.Rect{}, preds)
	}
	var union RowSet
	var total ScanStats
	for i, r := range rects {
		// Per-rect boundary: an unconditional poll — rect counts are
		// small, and each rect below can be an entire probe.
		if err := cn.cause(); err != nil {
			return RowSet{}, total, err
		}
		rows, st, err := v.scanRect(tr, cn, xCol, yCol, r, preds)
		if err != nil {
			return RowSet{}, total, err
		}
		total.add(st)
		if i == 0 {
			union = rows
		} else {
			union = union.Union(rows)
		}
	}
	return union, total, nil
}

// scanRect answers one rectangle of ScanRects against the view.
func (v View) scanRect(tr *obs.Trace, cn *canceler, xCol, yCol string, r geom.Rect, preds []Pred) (RowSet, ScanStats, error) {
	var st ScanStats
	t, d := v.t, v.d
	xi, ok := t.colIdx[xCol]
	if !ok {
		return RowSet{}, st, fmt.Errorf("store: table %q column %q: %w", t.name, xCol, ErrNotFound)
	}
	yi, ok := t.colIdx[yCol]
	if !ok {
		return RowSet{}, st, fmt.Errorf("store: table %q column %q: %w", t.name, yCol, ErrNotFound)
	}
	pi := make([]int, len(preds))
	for i, p := range preds {
		ci, ok := t.colIdx[p.Column]
		if !ok {
			return RowSet{}, st, fmt.Errorf("store: table %q column %q: %w", t.name, p.Column, ErrNotFound)
		}
		pi[i] = ci
	}
	// The zero Rect selects everything (see the conventions above).
	if r == (geom.Rect{}) {
		r = unboundedRect
	}
	// Fold NaN bounds to the matching infinity so the geometric
	// machinery (Intersects, cell clamping, zone comparisons) sees the
	// same "unbounded" meaning the predicate comparisons give them.
	if math.IsNaN(r.MinX) {
		r.MinX = math.Inf(-1)
	}
	if math.IsNaN(r.MinY) {
		r.MinY = math.Inf(-1)
	}
	if math.IsNaN(r.MaxX) {
		r.MaxX = math.Inf(1)
	}
	if math.IsNaN(r.MaxY) {
		r.MaxY = math.Inf(1)
	}
	preds = normalizePreds(preds)
	// All-rows fast path: an unbounded rectangle with no predicates
	// matches every live row — NaN/±Inf coordinates and the appended
	// tail included — as a dense range (minus the tombstone set),
	// agreeing with Scan(nil).
	if len(preds) == 0 && r == unboundedRect {
		return rangeMinusBitmap(0, d.n, d.dead), st, nil
	}
	ix := d.indexFor(xi, yi)
	// Adaptive zone planning: columns whose zone maps have consulted
	// thousands of cells without ever pruning or settling one (an
	// uncorrelated filter column) stop paying the zone checks.
	var skip []bool
	if ix != nil && len(preds) > 0 {
		skip = t.zoneSkipFor(pi)
		if skip != nil {
			for _, s := range skip {
				if s {
					st.ZonesSkipped++
				}
			}
			t.counters.zoneSkips.Add(int64(st.ZonesSkipped))
		}
	}
	// With no viewport restriction and every predicate's zones useless,
	// the probe would walk the entire grid cell by cell only to evaluate
	// the predicates per row — the linear scan does the same work with
	// none of the cell overhead.
	linear := ix == nil || (r == unboundedRect && st.ZonesSkipped == len(preds) && len(preds) > 0)
	if linear {
		t.counters.scanFallbacks.Add(1)
	} else {
		st.IndexProbe = true
		t.counters.indexProbes.Add(1)
		if len(preds) == 0 && ix.rows() == d.n && ix.coversAll(r) {
			return rangeMinusBitmap(0, d.n, d.dead), st, nil
		}
	}
	p := newProbe(d.cols, d.cols[xi], d.cols[yi], r, preds, pi, skip, cn)
	p.st = st
	// The linear scan is one dense range, [0, n). An index probe walks
	// its units and extras first; the rows appended after its build
	// belong to no unit and are the dense range [ix.rows(), n).
	from := 0
	if !linear {
		sp := tr.StartSpan(obs.StageProbe)
		if r.Intersects(ix.extent()) {
			ix.collect(p)
		}
		// A canceled probe returned a partial id set; discard it and
		// unwind with the context's error before any more work is
		// attributed.
		if err := cn.cause(); err != nil {
			sp.End()
			return RowSet{}, p.st, err
		}
		p.extras(ix.extras())
		sp.End()
		from = ix.rows()
	}
	sp := tr.StartSpan(obs.StageResidual)
	p.span(from, d.n)
	sp.End()
	if err := cn.cause(); err != nil {
		return RowSet{}, p.st, err
	}
	st = p.st
	t.counters.batchedRows.Add(int64(st.BatchedRows))
	if !linear && len(preds) > 0 {
		t.counters.filteredProbes.Add(1)
		t.counters.zoneCellsTouched.Add(int64(st.CellsTouched))
		t.counters.zoneCellsPruned.Add(int64(st.CellsPruned))
		for k, c := range p.tally {
			if skip == nil || !skip[k] {
				t.zoneStat[pi[k]].evaluated.Add(c.eval)
				t.zoneStat[pi[k]].decisive.Add(c.decisive)
			}
		}
	}
	// Cells, leaves and extras emit out of row order; one sort restores
	// it (the contract, and what the ScanRect ≡ Scan property test
	// checks). A linear scan's span emits in row order and needs none.
	// Sorting and materializing the RowSet is O(result); attribute it to
	// the probe that produced the ids. The tombstone refine pass runs
	// once here over the final id list, so the batch kernels above never
	// test liveness per row.
	sp = tr.StartSpan(obs.StageProbe)
	if !linear {
		slices.Sort(p.ids)
	}
	rs := rowSetFromSorted(filterDeadInts(p.ids, d.dead))
	sp.End()
	return rs, st, nil
}

// Points projects two columns into geometry points for the given row
// set. A dense RowSet walks the column arrays directly — the
// full-extent path never materializes row ids. Rows must come from this
// view (a scan of it, or All); a row past its row count is an error.
func (v View) Points(xCol, yCol string, rows RowSet) ([]geom.Point, error) {
	t, d := v.t, v.d
	xi, ok := t.colIdx[xCol]
	if !ok {
		return nil, fmt.Errorf("store: table %q column %q: %w", t.name, xCol, ErrNotFound)
	}
	yi, ok := t.colIdx[yCol]
	if !ok {
		return nil, fmt.Errorf("store: table %q column %q: %w", t.name, yCol, ErrNotFound)
	}
	xs, ys := d.cols[xi], d.cols[yi]
	if rows.all {
		rows = RowRange(0, d.n)
	}
	// Tombstoned rows are invisible to projections too: subtract this
	// view's dead set (a no-op without deletions). Idempotent for row
	// sets a scan already filtered.
	rows = rows.subtractBitmap(d.dead)
	if start, end, ok := rows.AsRange(); ok {
		if end > d.n {
			return nil, fmt.Errorf("store: table %q: row range [%d,%d) out of range [0,%d)", t.name, start, end, d.n)
		}
		pts := make([]geom.Point, end-start)
		gatherPointsDense(pts, xs[start:end], ys[start:end])
		return pts, nil
	}
	if err := checkRowBounds(t.name, rows, d.n); err != nil {
		return nil, err
	}
	if rows.bm != nil {
		pts := make([]geom.Point, 0, rows.Len())
		rows.bm.forEach(func(r int) { pts = append(pts, geom.Pt(xs[r], ys[r])) })
		return pts, nil
	}
	pts := make([]geom.Point, len(rows.ids))
	gatherPoints(pts, rows.ids, xs, ys)
	return pts, nil
}

// Gather returns the values of one column at the given rows of the
// view, in row order — one value per point Points returns for the same
// rows.
func (v View) Gather(col string, rows RowSet) ([]float64, error) {
	t, d := v.t, v.d
	i, ok := t.colIdx[col]
	if !ok {
		return nil, fmt.Errorf("store: table %q column %q: %w", t.name, col, ErrNotFound)
	}
	c := d.cols[i][:d.n]
	if rows.all {
		rows = RowRange(0, len(c))
	}
	rows = rows.subtractBitmap(d.dead)
	if start, end, ok := rows.AsRange(); ok {
		if end > len(c) {
			return nil, fmt.Errorf("store: table %q: row range [%d,%d) out of range [0,%d)", t.name, start, end, len(c))
		}
		out := make([]float64, end-start)
		copy(out, c[start:end])
		return out, nil
	}
	if err := checkRowBounds(t.name, rows, len(c)); err != nil {
		return nil, err
	}
	if rows.bm != nil {
		out := make([]float64, 0, rows.Len())
		rows.bm.forEach(func(r int) { out = append(out, c[r]) })
		return out, nil
	}
	out := make([]float64, len(rows.ids))
	gatherVals(out, rows.ids, c)
	return out, nil
}

// checkRowBounds validates an explicit RowSet against a row count in
// O(1): the ids are sorted, so checking the extremes covers every row.
func checkRowBounds(table string, rows RowSet, n int) error {
	lo, ok := rows.Min()
	if !ok {
		return nil
	}
	hi, _ := rows.Max()
	if lo < 0 || hi >= n {
		return fmt.Errorf("store: table %q: row %d out of range [0,%d)", table, pickOutOfRange(lo, hi, n), n)
	}
	return nil
}

func pickOutOfRange(lo, hi, n int) int {
	if lo < 0 {
		return lo
	}
	return hi
}

// Bounds returns the bounding rectangle of the (xCol, yCol) projection
// of the view's live rows. When the pair is indexed and the index
// covers every row, the answer is the index's precomputed extent
// (O(1)). It is empty for a view with no live rows.
func (v View) Bounds(xCol, yCol string) (geom.Rect, error) {
	t, d := v.t, v.d
	xi, ok := t.colIdx[xCol]
	if !ok {
		return geom.Rect{}, fmt.Errorf("store: table %q column %q: %w", t.name, xCol, ErrNotFound)
	}
	yi, ok := t.colIdx[yCol]
	if !ok {
		return geom.Rect{}, fmt.Errorf("store: table %q column %q: %w", t.name, yCol, ErrNotFound)
	}
	// The index extent excludes non-finite rows (they are unbinnable)
	// and includes tombstoned rows, so the fast path only applies when
	// there are neither — the linear path below folds ±Inf coordinates
	// into the extent like UnionPoint always has, and skips dead rows
	// so a delete can shrink the served extent.
	if ix := d.indexFor(xi, yi); ix != nil && ix.rows() == d.n && len(ix.extras()) == 0 && d.deadCount() == 0 {
		return ix.extent(), nil
	}
	xs, ys := d.cols[xi], d.cols[yi]
	b := geom.EmptyRect()
	for i := 0; i < d.n; i++ {
		if d.dead != nil && d.dead.contains(i) {
			continue
		}
		b = b.UnionPoint(geom.Pt(xs[i], ys[i]))
	}
	return b, nil
}
