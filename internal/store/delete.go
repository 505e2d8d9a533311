package store

// The retention layer: tombstone deletes and per-table TTL policies.
//
// A delete never rewrites storage on the serving path. It scans for the
// matching rows against one snapshot, then publishes a fresh generation
// whose tombstone bitmap has those rows set — columns, row count, and
// indexes all shared with the previous generation. Every read subtracts
// the snapshot's tombstones (rowset.go, kernel.go), so a delete is
// visible atomically with the generation publish. The physical work —
// dropping dead rows, rewriting columns, CSR grids, and zone maps —
// happens later, in Compact (delta.go), off the read path.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
)

// timeNow is the retention clock, a variable so TTL tests can pin it.
var timeNow = time.Now

// deleteMaxRetries bounds how often a delete retries after losing a
// race with a content replacement (BulkLoad, snapshot restore, or a
// reclaiming compaction) between its scan and its publish.
const deleteMaxRetries = 16

// DeleteRect tombstones every row whose (xCol, yCol) projection lies
// inside r, following View.ScanRects' rectangle conventions — the zero
// Rect means "no restriction" and therefore deletes every row; NaN
// bounds fold to ±Inf; rows with NaN coordinates match every bound. It
// returns the number of rows newly deleted (rows already tombstoned
// are not recounted).
//
// The delete covers the rows visible when it ran: a row appended
// concurrently with the call may or may not be examined, exactly as a
// scan racing an append may or may not see the new row.
func (t *Table) DeleteRect(xCol, yCol string, r geom.Rect) (int, error) {
	if _, ok := t.colIdx[xCol]; !ok {
		return 0, fmt.Errorf("store: table %q column %q: %w", t.name, xCol, ErrNotFound)
	}
	if _, ok := t.colIdx[yCol]; !ok {
		return 0, fmt.Errorf("store: table %q column %q: %w", t.name, yCol, ErrNotFound)
	}
	if r == (geom.Rect{}) {
		r = unboundedRect
	}
	return t.DeleteWhere([]Pred{
		{Column: xCol, Min: r.MinX, Max: r.MaxX},
		{Column: yCol, Min: r.MinY, Max: r.MaxY},
	})
}

// DeleteWhere tombstones every row satisfying all predicates (Scan's
// conjunctive range semantics: NaN bounds fold to ±Inf, NaN values
// match every range) and returns the number of rows newly deleted. An
// empty predicate list deletes every row.
func (t *Table) DeleteWhere(preds []Pred) (int, error) {
	pi := make([]int, len(preds))
	for i, p := range preds {
		ci, ok := t.colIdx[p.Column]
		if !ok {
			return 0, fmt.Errorf("store: table %q column %q: %w", t.name, p.Column, ErrNotFound)
		}
		pi[i] = ci
	}
	preds = normalizePreds(preds)
	for attempt := 0; ; attempt++ {
		d := t.snapshot()
		if d.n == 0 {
			return 0, nil
		}
		var ids []int
		if len(preds) == 0 {
			ids = make([]int, d.n)
			for i := range ids {
				ids[i] = i
			}
		} else {
			cols := make([][]float64, len(preds))
			for i, ci := range pi {
				cols[i] = d.cols[ci]
			}
			ids = scanShards(cols, preds, d.n, nil)
		}
		ids = filterDeadInts(ids, d.dead)
		if len(ids) == 0 {
			return 0, nil
		}
		t.mu.Lock()
		cur := t.data
		if cur.loadGen != d.loadGen {
			// The content the scan matched against was replaced
			// mid-flight; the ids describe dead data. Rescan.
			t.mu.Unlock()
			if attempt >= deleteMaxRetries {
				return 0, fmt.Errorf("store: table %q: delete lost %d publish races, giving up", t.name, attempt+1)
			}
			continue
		}
		// Appends since the scan only added rows past d.n — the matched
		// prefix is immutable, so the ids are still valid. Concurrent
		// deletes may have tombstoned some of them already; orBitmapRows
		// counts only the newly-set bits.
		dead, added := orBitmapRows(cur.dead, ids)
		if added == 0 {
			t.mu.Unlock()
			return 0, nil
		}
		t.data = &tableData{cols: cur.cols, n: cur.n, indexes: cur.indexes, dead: dead, loadGen: cur.loadGen}
		t.mu.Unlock()
		t.counters.deletedRows.Add(int64(added))
		t.maybeCompact()
		return added, nil
	}
}

// SetTTL installs the table's retention policy: rows whose value in the
// timestamp column (float64 Unix seconds) is at least maxAge old get
// tombstoned by the next compaction — Compact enforces the policy
// before it merges deltas and reclaims dead rows, so background
// compaction doubles as the retention sweeper. A non-positive maxAge
// clears the policy. NaN timestamps match the cutoff range like every
// range predicate and therefore age out immediately.
func (t *Table) SetTTL(col string, maxAge time.Duration) error {
	if _, ok := t.colIdx[col]; !ok {
		return fmt.Errorf("store: table %q column %q: %w", t.name, col, ErrNotFound)
	}
	t.ttlMu.Lock()
	defer t.ttlMu.Unlock()
	if maxAge <= 0 {
		t.ttlCol = -1
		t.ttlAge = 0
		return nil
	}
	t.ttlCol = t.colIdx[col]
	t.ttlAge = maxAge
	return nil
}

// TTL reports the current retention policy; ok is false when none is
// set.
func (t *Table) TTL() (col string, maxAge time.Duration, ok bool) {
	t.ttlMu.Lock()
	defer t.ttlMu.Unlock()
	if t.ttlCol < 0 {
		return "", 0, false
	}
	return t.colName[t.ttlCol], t.ttlAge, true
}

// enforceTTL tombstones the rows the retention policy has expired.
// Called by Compact; a no-op without a policy.
func (t *Table) enforceTTL() {
	t.ttlMu.Lock()
	col, age := t.ttlCol, t.ttlAge
	t.ttlMu.Unlock()
	if col < 0 || age <= 0 {
		return
	}
	cutoff := float64(timeNow().Add(-age).Unix())
	// Losing a publish race here is fine — the next compaction sweeps
	// again — so the retry-exhausted error is deliberately dropped.
	_, _ = t.DeleteWhere([]Pred{{Column: t.colName[col], Min: math.Inf(-1), Max: cutoff}})
}
