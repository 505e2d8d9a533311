package store

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the live-ingest side of the spatial index: a mutable
// delta index that absorbs appended rows as they arrive, and the
// background compaction that periodically folds the delta back into a
// fresh immutable generation.
//
// The base index — the CSR grid (index.go) or the packed tree
// (treeindex.go) — is immutable by design: it is built against one
// generation of column storage and published atomically with it.
// Before deltas, every append therefore landed in an unindexed linear
// tail that each probe re-walked until the next full rebuild: under
// steady ingest the read path degraded back toward the linear baseline.
// The delta index closes that gap without giving up the
// immutable-generation read model:
//
//   - geometry is the base's uniform grid (same bounds, same cells,
//     under either backend), walked by the same gridGeom.walkCells the
//     grid backend probes with;
//   - appended rows are binned into per-cell append-only buckets, with
//     running per-(column, cell) zoneMaps maintained in the same
//     critical section, and every bucket goes through the one run
//     filter (probe.run), so filtered probes prune delta buckets
//     exactly like base cells and leaves;
//   - readers never lock the table: they take the delta's read lock,
//     and snapshot consistency falls out of row-id monotonicity — a
//     reader holding a generation with n rows ignores every delta row
//     id >= n, so rows appended after its snapshot are invisible to it.
//     Delta zone maps may cover rows past the reader's snapshot; that
//     only widens them, which makes pruning and bulk-passing strictly
//     more conservative, never wrong.
//
// Points appended outside the base grid's bounds clamp into edge cells,
// mirroring how probe rectangles clamp (both are monotonic in the
// coordinate), so a probe's clamped cell range always covers the
// clamped cells of every matching row; the per-row rectangle test keeps
// the answer exact.

// compactMinRows is the smallest delta (in rows) that can trigger an
// automatic compaction; below it the rebuild costs more than the tail
// it absorbs ever will.
const compactMinRows = 256

// deltaIndex accumulates rows appended after base was built. Guarded by
// its own RWMutex: writers (AppendRows, under the table write
// lock) take the write lock per batch; probes take the read lock and
// never touch the table lock, so ingest and serving contend only here
// and only briefly.
type deltaIndex struct {
	mu    sync.RWMutex
	base  *gridGeom // immutable geometry donor; covers rows [0, base.n)
	ncols int
	rows  int // absorbed rows: ids [base.n, base.n+rows)
	// saturated stops absorption permanently when a row id cannot be
	// represented (or arrives out of order, which cannot happen under
	// the table lock but is cheap to guard); rows past the watermark
	// fall back to the caller's linear tail filter.
	saturated bool
	// buckets holds, per base-grid cell, the ascending row ids binned
	// there; allocated on first absorbed row. Ids index the table's
	// column generation directly — the append-only columns are the one
	// shared absorbed-row arena, so tables with several indexed (x, y)
	// pairs no longer duplicate coordinates inline in every index's
	// delta (the old deltaEntry carried 24 bytes per row per index).
	// The absorbed tail occupies the end of each column array, a region
	// small enough to stay cache-resident, and the batch kernels gather
	// from it a column at a time. When the base index has no grid (it
	// was built over zero rows), every row lands in extra.
	buckets [][]int32
	// extra holds rows with a non-finite coordinate (and every row when
	// there is no grid), ascending; filtered per probe like base extras.
	extra []int32
	// Running per-(column, cell) zone maps over the delta. Only
	// meaningful for cells with a non-empty bucket.
	zones zoneMaps
}

func newDeltaIndex(base *gridGeom, ncols int) *deltaIndex {
	return &deltaIndex{base: base, ncols: ncols}
}

// coveredRows returns how many appended rows the delta has absorbed.
func (dx *deltaIndex) coveredRows() int {
	dx.mu.RLock()
	defer dx.mu.RUnlock()
	return dx.rows
}

// absorbRange bins rows [lo, hi) of cols into the delta. Callers hold
// the table write lock, so lo always equals the current watermark; the
// guard only trips on unrepresentable ids.
func (dx *deltaIndex) absorbRange(cols [][]float64, lo, hi int) {
	if hi <= lo {
		return
	}
	dx.mu.Lock()
	defer dx.mu.Unlock()
	cells := dx.base.nx * dx.base.ny
	for row := lo; row < hi; row++ {
		// row must stay strictly below MaxInt32: the watermark
		// baseN+rows is converted to an int32 limit by collect, so
		// absorbing id MaxInt32 itself would overflow it.
		if dx.saturated || row != dx.base.n+dx.rows || row >= math.MaxInt32 {
			dx.saturated = true
			return
		}
		x, y := cols[dx.base.xi][row], cols[dx.base.yi][row]
		if cells == 0 || !isFinite(x) || !isFinite(y) {
			dx.extra = append(dx.extra, int32(row))
			dx.rows++
			continue
		}
		if dx.buckets == nil {
			dx.buckets = make([][]int32, cells)
			dx.zones = newZoneMaps(dx.ncols, cells)
		}
		c := dx.base.cellIndex(x, y)
		dx.buckets[c] = append(dx.buckets[c], int32(row))
		dx.zones.add(cols, int(c), row)
		dx.rows++
	}
}

// collect runs the delta rows through p, bounded by the caller's
// snapshot row count snapN: rows absorbed after the caller's snapshot
// are ignored. It returns the watermark up to which appended rows are
// covered; rows in [watermark, snapN) are the caller's to filter
// linearly.
func (dx *deltaIndex) collect(p *probe, snapN int) int {
	dx.mu.RLock()
	defer dx.mu.RUnlock()
	covered := min(dx.base.n+dx.rows, snapN)
	if dx.rows == 0 || covered <= dx.base.n {
		return covered
	}
	limit := int32(covered)
	// below cuts an ascending id list to the caller's snapshot.
	below := func(ids []int32) []int32 {
		if len(ids) == 0 || ids[len(ids)-1] < limit {
			return ids
		}
		return ids[:sort.Search(len(ids), func(i int) bool { return ids[i] >= limit })]
	}
	p.delta = true
	if dx.buckets != nil {
		// The same clamped cell range the base grid uses. No bounds-
		// intersection gate here: delta rows outside the base bounds
		// clamp into edge cells, and so do out-of-range rectangles, so
		// the clamped range always covers them.
		s := dx.base.span(p.r)
		// Upper-bound the delta contribution in one cheap pass so
		// appending to the base ids cannot force more than one
		// reallocation that copies the whole base result.
		bound := len(dx.extra)
		for row := s.r0; row <= s.r1; row++ {
			for _, b := range dx.buckets[row*dx.base.nx+s.c0 : row*dx.base.nx+s.c1+1] {
				bound += len(b)
			}
		}
		if cap(p.ids)-len(p.ids) < bound {
			p.ids = append(make([]int, 0, len(p.ids)+bound), p.ids...)
		}
		dx.base.walkCells(p, s, func(cell int, needRect bool) {
			if b := dx.buckets[cell]; len(b) > 0 && b[0] < limit {
				p.st.CellsTouched++
				p.run(below(b), &dx.zones, cell, needRect)
			}
		})
	}
	p.extras(below(dx.extra))
	return covered
}

// ---- background compaction ----

// SetAutoCompact enables threshold-triggered background compaction:
// after an append, when any spatial index's uncompacted tail exceeds
// frac of its indexed rows (and at least a small absolute floor), a
// background goroutine rebuilds the table's indexes against the current
// generation and publishes them atomically — off the read path, which
// keeps serving from the old generation plus delta until the publish.
// frac <= 0 disables the trigger (the default); Compact can always be
// called explicitly.
func (t *Table) SetAutoCompact(frac float64) {
	t.autoCompact.Store(math.Float64bits(frac))
}

// maybeCompact fires one background compaction when the auto-compact
// threshold is crossed. At most one compaction runs at a time.
func (t *Table) maybeCompact() {
	frac := math.Float64frombits(t.autoCompact.Load())
	if frac <= 0 {
		return
	}
	d := t.snapshot()
	trigger := false
	// Tombstones are compaction pressure too: past the same threshold,
	// fire a reclaim so a sliding-window table does not accumulate dead
	// rows forever between explicit Compact calls.
	if dead := d.deadCount(); dead >= compactMinRows && float64(dead) >= frac*float64(d.n) {
		trigger = true
	}
	for _, ix := range d.indexes {
		tail := d.n - ix.rows()
		if tail >= compactMinRows && float64(tail) >= frac*float64(ix.rows()) {
			trigger = true
			break
		}
	}
	if !trigger || !t.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer t.compacting.Store(false)
		t.Compact()
	}()
}

// Compact folds every appended row into fresh immutable spatial indexes
// and publishes them as a new generation. The expensive part — the
// index builds — runs against a read snapshot with no table lock held;
// only the publish takes the write lock, where rows appended during the
// build are absorbed into the fresh indexes' (empty) deltas so no row
// is ever outside an index for longer than one publish. Readers observe
// either the old generation (base + delta) or the new one — never a
// mix. A BulkLoad or snapshot restore racing the build makes the built
// indexes obsolete; the publish detects the generation change and
// discards them. Compact is a no-op when every index already covers
// every row and nothing is tombstoned.
//
// Compact is also the retention sweeper: it first applies the table's
// TTL policy (SetTTL), then — when the snapshot carries tombstones —
// physically drops the dead rows: survivor columns are rewritten (in
// row order), the CSR grids and zone maps are rebuilt over exactly the
// survivors, and the result is published generation-atomically with an
// empty tombstone set and a bumped loadGen (row ids shift, so the
// reclaim is a content replacement, exactly like BulkLoad). A delete
// landing mid-rebuild aborts the publish — the ids it tombstoned
// describe the pre-reclaim layout — and the next compaction sweeps
// again.
func (t *Table) Compact() {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	t.enforceTTL()
	d := t.snapshot()
	t.mu.RLock()
	pairs := append([][2]int(nil), t.indexPairs...)
	t.mu.RUnlock()
	deadCount := d.deadCount()
	need := deadCount > 0
	for _, ix := range d.indexes {
		if ix.rows() < d.n {
			need = true
			break
		}
	}
	if !need || (len(pairs) == 0 && deadCount == 0) {
		return
	}
	jt := obs.StartJob("compaction")
	defer jt.End()
	start := time.Now()
	if deadCount > 0 {
		t.compactReclaim(d, pairs, deadCount, start)
		return
	}
	built := make(map[[2]int]spatialIndex, len(pairs))
	for _, p := range pairs {
		if ix := buildSpatialIndex(p[0], p[1], d.cols, d.n); ix != nil {
			built[p] = ix
		}
	}
	t.mu.Lock()
	cur := t.data
	if cur.loadGen != d.loadGen {
		// The table was reloaded mid-build: the fresh contents came with
		// their own freshly built indexes, and ours describe dead data.
		t.mu.Unlock()
		return
	}
	indexes := make([]spatialIndex, 0, len(pairs))
	for _, p := range pairs {
		nw := built[p]
		old := cur.indexFor(p[0], p[1])
		if nw == nil || (old != nil && old.rows() >= nw.rows()) {
			// A concurrent IndexOn absorbed at least as much; keep it.
			if old != nil {
				indexes = append(indexes, old)
			}
			continue
		}
		// Rows appended while we were building are already in cur; bin
		// them into the fresh delta so the new generation starts fully
		// covered.
		nw.deltaIdx().absorbRange(cur.cols, nw.rows(), cur.n)
		indexes = append(indexes, nw)
	}
	t.data = &tableData{cols: cur.cols, n: cur.n, indexes: indexes, dead: cur.dead, loadGen: cur.loadGen}
	t.mu.Unlock()
	// Appended rows may have shifted a column's value distribution (an
	// uncorrelated column can become correlated, and vice versa); the
	// fresh zone maps deserve fresh evidence, and a compaction is the
	// natural probation point for a previously earned skip.
	t.resetZoneStat()
	t.counters.compactions.Add(1)
	t.counters.compactionNanos.Add(int64(time.Since(start)))
}

// compactReclaim is Compact's tombstone-draining path: it rewrites the
// columns to just the surviving rows of snapshot d, rebuilds every
// registered index over them, and publishes the result as a fresh
// content generation. The rewrite and index builds run off-lock; the
// publish aborts if the content was replaced OR any new delete landed
// (the tombstone bitmap is copy-on-write, so pointer equality is exactly
// "no delete since the snapshot" — appends preserve the pointer).
func (t *Table) compactReclaim(d *tableData, pairs [][2]int, deadCount int, start time.Time) {
	alive := rangeMinusBitmap(0, d.n, d.dead).Indices()
	nn := len(alive)
	newCols := make([][]float64, len(d.cols))
	for i, c := range d.cols {
		out := make([]float64, nn)
		gatherVals(out, alive, c)
		newCols[i] = out
	}
	built := make([]spatialIndex, 0, len(pairs))
	for _, p := range pairs {
		if ix := buildSpatialIndex(p[0], p[1], newCols, nn); ix != nil {
			built = append(built, ix)
		}
	}
	t.mu.Lock()
	cur := t.data
	if cur.loadGen != d.loadGen || cur.dead != d.dead {
		t.mu.Unlock()
		return
	}
	// Rows appended mid-build sit at cur.cols[i][d.n:cur.n]; carry them
	// over (their ids shift down by the dead rows below them — all dead
	// rows are < d.n) and absorb them into the fresh deltas so the new
	// generation starts fully covered.
	tail := cur.n - d.n
	if tail > 0 {
		for i := range newCols {
			newCols[i] = append(newCols[i], cur.cols[i][d.n:cur.n]...)
		}
	}
	for _, ix := range built {
		ix.deltaIdx().absorbRange(newCols, ix.rows(), nn+tail)
	}
	t.data = &tableData{cols: newCols, n: nn + tail, indexes: built, loadGen: cur.loadGen + 1}
	t.mu.Unlock()
	t.resetZoneStat()
	t.counters.reclaimedRows.Add(int64(deadCount))
	t.counters.compactions.Add(1)
	t.counters.compactionNanos.Add(int64(time.Since(start)))
}
