package store

// The retention layer: tombstone deletes.
//
// A delete never rewrites storage on the serving path. It scans for the
// matching rows against one snapshot, then publishes a fresh generation
// whose tombstone bitmap has those rows set — columns, row count, and
// indexes all shared with the previous generation. Every read subtracts
// the snapshot's tombstones (rowset.go, kernel.go), so a delete is
// visible atomically with the generation publish. The physical work —
// dropping dead rows, rewriting columns, CSR grids, and zone maps —
// happens later, in Compact (compact.go), off the read path.

import "fmt"

// deleteMaxRetries bounds how often a delete retries after losing a
// race with a content replacement (BulkLoad, snapshot restore, or a
// reclaiming compaction) between its scan and its publish.
const deleteMaxRetries = 16

// DeleteWhere tombstones every row satisfying all predicates (Scan's
// conjunctive range semantics: NaN bounds fold to ±Inf, NaN values
// match every range) and returns the number of rows newly deleted (rows
// already tombstoned are not recounted). An empty predicate list
// deletes every row.
//
// The delete covers the rows visible when it ran: a row appended
// concurrently with the call may or may not be examined, exactly as a
// scan racing an append may or may not see the new row.
func (t *Table) DeleteWhere(preds []Pred) (int, error) {
	pi := make([]int, len(preds))
	for i, p := range preds {
		ci, ok := t.colIdx[p.Column]
		if !ok {
			return 0, fmt.Errorf("store: table %q column %q: %w", t.name, p.Column, ErrNotFound)
		}
		pi[i] = ci
	}
	for attempt := 0; ; attempt++ {
		d := t.snapshot()
		ids := d.scan(preds, pi)
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
		t.publish(&tableData{cols: cur.cols, n: cur.n, indexes: cur.indexes, dead: dead, loadGen: cur.loadGen})
		t.mu.Unlock()
		t.counters.deletedRows.Add(int64(added))
		t.maybeCompact()
		return added, nil
	}
}
