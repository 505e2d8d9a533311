package store

import (
	"math"
	"time"

	"repro/internal/obs"
)

// This file is background compaction: it folds the rows appended since
// the last build into fresh immutable spatial indexes and publishes them
// as a new generation.
//
// The base index — the CSR grid (index.go) or the packed tree
// (treeindex.go) — is immutable by design: it is built against one
// generation of column storage and published atomically with it. Rows
// appended after the build sit past the index's build watermark,
// [ix.rows(), n), and each probe filters that dense range through the
// batch kernels (probe.span). Auto-compaction bounds the range to
// max(compactMinRows, frac · indexed rows), so the tail a probe filters
// stays a small fraction of the table.

// compactMinRows is the smallest appended tail (in rows) that can
// trigger an automatic compaction; below it the rebuild costs more than
// filtering the tail ever will.
const compactMinRows = 256

// SetAutoCompact enables threshold-triggered background compaction:
// after an append, when any spatial index's uncompacted tail exceeds
// frac of its indexed rows (and at least a small absolute floor), a
// background goroutine rebuilds the table's indexes against the current
// generation and publishes them atomically — off the read path, which
// keeps serving from the old generation and its tail until the publish.
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
// only the publish takes the write lock. Rows appended during the build
// stay past the fresh indexes' watermark, a tail the next compaction
// folds in. Readers observe either the old generation or the new one —
// never a mix. A BulkLoad or snapshot restore racing the build makes the
// built indexes obsolete; the publish detects the generation change and
// discards them. Compact is a no-op when every index already covers
// every row and nothing is tombstoned.
//
// Compact also reclaims deletes: when the snapshot carries tombstones it
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
		indexes = append(indexes, nw)
	}
	t.publish(&tableData{cols: cur.cols, n: cur.n, indexes: indexes, dead: cur.dead, loadGen: cur.loadGen})
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
	// over as the fresh indexes' tail (their ids shift down by the dead
	// rows below them — all dead rows are < d.n).
	tail := cur.n - d.n
	if tail > 0 {
		for i := range newCols {
			newCols[i] = append(newCols[i], cur.cols[i][d.n:cur.n]...)
		}
	}
	t.publish(&tableData{cols: newCols, n: nn + tail, indexes: built, loadGen: cur.loadGen + 1})
	t.mu.Unlock()
	t.resetZoneStat()
	t.counters.reclaimedRows.Add(int64(deadCount))
	t.counters.compactions.Add(1)
	t.counters.compactionNanos.Add(int64(time.Since(start)))
}
