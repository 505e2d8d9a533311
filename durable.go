package vas

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// SnapshotFile is the file name SaveSnapshot writes (and LoadSnapshot
// reads) inside the snapshot directory. TailFile is the append-only
// ingest log that rides next to it: the appends and deletes since the
// last full save, replayed by LoadSnapshot and folded in (then deleted)
// by the next SaveSnapshot.
const (
	SnapshotFile = "catalog.snap"
	TailFile     = "catalog.tail"
)

// tailResaveFraction is how large the tail log may grow, relative to
// its table's rows, before a background full re-save folds it into the
// base snapshot file. resaveRetryBase and resaveRetryMax bound how
// often a FAILING re-save is retried — each attempt encodes the whole
// catalog under snapMu, so back-to-back retries against a broken
// directory would stall every write. Retries back off exponentially
// with jitter (see obs.Backoff) so a fleet of degraded servers does
// not hammer shared storage in lockstep.
const (
	tailResaveFraction = 0.25
	resaveRetryBase    = 2 * time.Second
	resaveRetryMax     = 60 * time.Second
)

// mutation is one write to a base table — an append batch or a
// conjunctive delete — in the shape the tail log records it. The
// façade, both HTTP hooks and snapshot replay all write through it.
type mutation snapshot.TailRecord

func (m mutation) op() string {
	if m.Delete {
		return "delete"
	}
	return "append"
}

// write applies m to t and returns how many rows it changed. It is the
// catalog's only store write of base-table rows, so the store's own
// checks (column count, known columns) guard live writes and replayed
// tail records alike.
func (m mutation) write(t *store.Table) (int, error) {
	if m.Delete {
		preds := make([]store.Pred, len(m.Preds))
		for i, p := range m.Preds {
			preds[i] = store.Pred{Column: p.Col, Min: p.Min, Max: p.Max}
		}
		return t.DeleteWhere(preds)
	}
	if err := t.AppendRows(m.Cols...); err != nil {
		return 0, err
	}
	return len(m.Cols[0]), nil
}

// log appends m to the tail log at path. A delete is logged as its
// predicate, not the matched row ids: ids shift when compaction
// reclaims dead rows, but replaying the record stream in order
// reproduces the same visible rows.
func (m mutation) log(path string, epoch uint64) error {
	jt := obs.StartJob("tail_write")
	defer jt.End()
	if m.Delete {
		return snapshot.AppendTailDelete(path, m.Table, m.Preds, epoch)
	}
	return snapshot.AppendTail(path, m.Table, m.Cols, epoch)
}

// apply is the catalog's one write path: Append, DeleteWhere and both
// HTTP hooks call it. It rejects a write to a sample table with
// server.ErrSampleTable. One snapMu section rejects the write in
// read-only degraded mode, writes the store, logs the tail record, does
// the re-save accounting and decides on a re-save — so a concurrent
// SaveSnapshot can never fold the write into the base file AND leave
// its record in the log for a later load to replay twice. n > 0 with a
// non-nil error means the rows changed but are not durable (see Append).
func (c *Catalog) apply(m mutation) (int, error) {
	t, err := c.st.Table(m.Table)
	if err != nil {
		return 0, err
	}
	if _, _, ok := c.st.Sample(m.Table); ok {
		return 0, fmt.Errorf("vas: %s on %q: %w", m.op(), m.Table, server.ErrSampleTable)
	}
	c.snapMu.Lock()
	if c.readOnlyOnDegrade && c.snapErr != nil {
		// The HTTP layer maps server.ErrDegraded to 503 + Retry-After.
		err := fmt.Errorf("vas: %s rejected (%w: snapshot persistence degraded): %v", m.op(), server.ErrDegraded, c.snapErr)
		c.snapMu.Unlock()
		return 0, err
	}
	n, err := m.write(t)
	if err != nil {
		c.snapMu.Unlock()
		return 0, err
	}
	resave := false
	// A write that changed no row replays as the same no-op: logging it
	// would only grow the tail.
	if c.snapDir != "" && n > 0 {
		if c.snapErr != nil {
			// The log is degraded; writing past an earlier failed record
			// could corrupt it mid-file. Keep surfacing the degradation
			// and lean on the re-save retry.
			err = fmt.Errorf("vas: %s not durable (snapshot persistence degraded): %w", m.op(), c.snapErr)
		} else if err = m.log(filepath.Join(c.snapDir, TailFile), c.snapEpoch); err != nil {
			c.snapErr = err
			err = fmt.Errorf("vas: %s durable tail: %w", m.op(), err)
		} else {
			if c.tailRows == nil {
				c.tailRows = make(map[string]int64)
			}
			// Deleted rows count toward the re-save threshold like
			// appended ones: both live only in the log until the next
			// full save folds them in.
			c.tailRows[m.Table] += int64(n)
		}
		resave = (err != nil || float64(c.tailRows[m.Table]) >= tailResaveFraction*float64(t.NumRows())) &&
			time.Since(c.lastResave) >= c.resaveBackoff.Current()
	}
	c.snapMu.Unlock()
	if resave {
		c.kickResave()
	}
	return n, err
}

// kickResave launches the background full re-save unless one is already
// in flight.
func (c *Catalog) kickResave() {
	if !c.resaving.CompareAndSwap(false, true) {
		return
	}
	c.resaveWG.Add(1)
	go func() {
		defer c.resaveWG.Done()
		defer c.resaving.Store(false)
		c.snapMu.Lock()
		dir := c.snapDir
		c.lastResave = time.Now()
		c.snapMu.Unlock()
		if dir != "" {
			// A full save folds the in-memory state (tail included) into
			// the base file, truncates the log, and clears any
			// degradation; losing the race to a concurrent explicit
			// save is fine — it does the same thing. A failure stays
			// recorded in snapErr until a retry succeeds.
			if err := c.SaveSnapshot(dir); err != nil {
				c.snapMu.Lock()
				c.snapErr = err
				// Stretch the gap before the next retry: the whole
				// catalog is re-encoded per attempt, and the directory
				// is still broken.
				c.resaveBackoff.Advance()
				c.snapMu.Unlock()
			}
		}
	}()
}

// WaitBackground blocks until any in-flight background re-save has
// finished: afterwards no catalog goroutine is still writing to the
// snapshot directory, and SnapshotErr reflects the outcome of every
// re-save attempt so far. For orderly shutdown and tests.
func (c *Catalog) WaitBackground() {
	c.resaveWG.Wait()
}

// SetReadOnlyOnDegrade controls the explicit read-only degraded mode:
// when on, a catalog whose snapshot persistence is degraded
// (SnapshotErr != nil) rejects Append/Delete with an error wrapping
// server.ErrDegraded rather than accepting rows it cannot persist.
// Queries keep serving either way. Off by default, preserving the
// accept-but-report contract (see docs/RESILIENCE.md for the
// trade-off).
func (c *Catalog) SetReadOnlyOnDegrade(on bool) {
	c.snapMu.Lock()
	c.readOnlyOnDegrade = on
	c.snapMu.Unlock()
}

// SnapshotErr reports whether snapshot persistence is degraded: the
// last tail-log write or background re-save failed and no save has
// succeeded since. A degraded catalog keeps serving (appended rows stay
// live in memory) and keeps retrying a full re-save in the background.
func (c *Catalog) SnapshotErr() error {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return c.snapErr
}

// tailStatus reports, per base table, whether snapshot-tail durability
// is degraded, for the /metrics vasserve_tail_log_degraded gauge. It
// returns nil when the catalog is not bound to a snapshot directory —
// without persistence there is no tail log to degrade.
func (c *Catalog) tailStatus() []server.TailStatus {
	c.snapMu.Lock()
	dir, degraded := c.snapDir, c.snapErr != nil
	c.snapMu.Unlock()
	if dir == "" {
		return nil
	}
	c.provMu.Lock()
	names := make([]string, 0, len(c.prov))
	for name := range c.prov {
		names = append(names, name)
	}
	c.provMu.Unlock()
	sort.Strings(names)
	out := make([]server.TailStatus, len(names))
	for i, name := range names {
		out[i] = server.TailStatus{Table: name, Degraded: degraded}
	}
	return out
}

// SaveSnapshot persists the catalog's entire serving state — every
// table's columns (appended rows included), spatial indexes (grid or
// tree, with their zone maps), the sample lineage, and the per-table
// provenance — to dir/catalog.snap in the versioned, checksummed binary
// format of internal/snapshot. The write is atomic (temp file + rename), so a
// crash mid-save leaves the previous snapshot intact. Rows that were
// living only in the tail log are folded into the base file by the
// capture, so the log is truncated in the same critical section; the
// save also binds the catalog to dir, making later Appends durable
// there. A later LoadSnapshot restores the catalog without re-running
// BuildSamples or any index build.
func (c *Catalog) SaveSnapshot(dir string) error {
	jt := obs.StartJob("snapshot_save")
	defer jt.End()
	// snapMu makes capture + save + tail truncation atomic with respect
	// to apply: no write can slip between the capture (which folds every
	// in-memory row into the base file) and the tail removal, where its
	// log record would be deleted unfolded.
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	cat := &snapshot.Catalog{}
	// One critical section for membership + lineage: a BuildSamples
	// racing the save can never leave a lineage entry in the snapshot
	// whose sample table is missing from it (which would make the file
	// unloadable).
	cat.Tables, cat.Samples = c.st.SnapshotCatalog()
	c.provMu.Lock()
	for _, p := range c.prov {
		cat.Provenance = append(cat.Provenance, p)
	}
	c.provMu.Unlock()
	// Name order, like the tables: the same catalog saves the same bytes.
	sort.Slice(cat.Provenance, func(i, j int) bool { return cat.Provenance[i].Table < cat.Provenance[j].Table })
	// Stamp the new base file with the next epoch BEFORE touching the
	// tail: if the process dies between the rename below and RemoveTail,
	// the surviving tail carries the previous epoch and LoadSnapshot
	// discards it instead of replaying rows the capture already folded
	// into the base.
	cat.Epoch = c.snapEpoch + 1
	if err := snapshot.Save(filepath.Join(dir, SnapshotFile), cat); err != nil {
		return err
	}
	c.snapEpoch = cat.Epoch
	if err := snapshot.RemoveTail(filepath.Join(dir, TailFile)); err != nil {
		return fmt.Errorf("vas: truncating folded tail log: %w", err)
	}
	c.snapDir = dir
	c.tailRows = nil
	// Everything in memory is now in the base file: any earlier tail or
	// re-save failure is healed, and retry pacing starts over.
	c.snapErr = nil
	c.resaveBackoff.Reset()
	return nil
}

// LoadSnapshot restores a catalog saved by SaveSnapshot from
// dir/catalog.snap, then replays dir/catalog.tail — the appends and
// deletes since that save — through the same store write a live
// mutation takes, so a server restarted mid-ingest comes back with
// every acknowledged write and never rebuilds a sample or an index.
// Every table is validated (framing and checksums by the decoder, every
// structural index invariant by the store) and the whole tail replayed
// into the restored tables before anything is published; the batch then
// lands in one critical section. Each restored table is a new table with
// a new generation, so no tile cached before the load is served after
// it. Readers see the old catalog or the fully replayed one, never the
// base file without its tail. A corrupt, truncated, or version-skewed
// snapshot (or tail log) — or a tail record the restored tables reject
// — returns an error and leaves the catalog exactly as it was, never
// partially loaded.
//
// Freshness is the caller's decision: compare SnapshotFresh against the
// data a rebuild would use, and rebuild (then SaveSnapshot again) when
// it reports stale. Appended batches do not enter that comparison —
// provenance describes the loaded base data, and the tail rides on top.
func (c *Catalog) LoadSnapshot(dir string) error {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	cat, err := snapshot.Load(filepath.Join(dir, SnapshotFile))
	if err != nil {
		return err
	}
	tail, tailEpoch, err := snapshot.LoadTail(filepath.Join(dir, TailFile))
	if err != nil {
		return fmt.Errorf("vas: snapshot tail %s: %w", filepath.Join(dir, TailFile), err)
	}
	// Pair the tail with the base file by epoch. A tail from an EARLIER
	// save is the footprint of a crash between snapshot.Save and
	// RemoveTail: its records are already folded into the base, and
	// replaying them would duplicate every row. Discard it. A tail from
	// a LATER epoch than the base can only mean the base file was
	// swapped or rolled back underneath the log — replaying it against
	// the wrong base would publish rows that were never acknowledged
	// together, so reject the load.
	switch {
	case tailEpoch < cat.Epoch:
		tail = nil
	case tailEpoch > cat.Epoch:
		return fmt.Errorf("vas: snapshot tail %s: %w: tail epoch %d is newer than snapshot epoch %d",
			filepath.Join(dir, TailFile), snapshot.ErrCorrupt, tailEpoch, cat.Epoch)
	}
	frac := c.compactFrac
	tables := make([]*store.Table, 0, len(cat.Tables))
	byName := make(map[string]*store.Table, len(cat.Tables))
	for _, ts := range cat.Tables {
		t, err := store.TableFromSnapshot(ts)
		if err != nil {
			return fmt.Errorf("vas: snapshot %s: %w", filepath.Join(dir, SnapshotFile), err)
		}
		t.SetAutoCompact(frac)
		tables = append(tables, t)
		byName[t.Name()] = t
	}
	// Replay the tail in order into the still-unpublished tables:
	// AppendRows lands every batch past the restored indexes, and
	// DeleteWhere re-tombstones by predicate. Interleaving matters: a
	// delete only covers the appends before it, exactly as it did in the
	// original process. A sample never takes a write (apply refuses
	// one), so a record for one came from an older binary or a damaged
	// log, and the load fails as for an unknown table.
	samples := make(map[string]bool, len(cat.Samples))
	for _, m := range cat.Samples {
		samples[m.Table] = true
	}
	tailRows := make(map[string]int64)
	for ri, rec := range tail {
		t, ok := byName[rec.Table]
		switch {
		case !ok:
			return fmt.Errorf("vas: snapshot tail record %d targets unknown table %q", ri, rec.Table)
		case samples[rec.Table]:
			return fmt.Errorf("vas: snapshot tail record %d targets %q: %w", ri, rec.Table, server.ErrSampleTable)
		}
		n, err := mutation(rec).write(t)
		if err != nil {
			return fmt.Errorf("vas: snapshot tail record %d replay into %q: %w", ri, rec.Table, err)
		}
		tailRows[rec.Table] += int64(n)
	}
	if err := c.st.PublishCatalog(tables, cat.Samples); err != nil {
		return fmt.Errorf("vas: snapshot %s: %w", filepath.Join(dir, SnapshotFile), err)
	}
	c.snapDir = dir
	c.tailRows = tailRows
	c.snapEpoch = cat.Epoch
	c.provMu.Lock()
	for _, p := range cat.Provenance {
		c.prov[p.Table] = p
	}
	c.provMu.Unlock()
	return nil
}
