// Package store implements the RDBMS substrate of the Fig. 3 architecture:
// an in-memory column store holding the base tables and the pre-generated
// sample tables that VAS maintains ("the sample(s) can be maintained by the
// same RDBMS", §II-B). It supports typed float64 columns, append and bulk
// load, predicate scans over column ranges, grid-binned spatial indexes
// over (x, y) column pairs answering viewport queries as index probes
// (View.ScanRects), and a catalog that records sample lineage (source table,
// method, size) so the query layer can pick the right sample for a latency
// budget. Scans produce RowSets — dense ranges or sorted index lists —
// that the projection operators (Points, Gather) consume without ever
// materializing per-row ids on the full-extent fast path.
package store

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
)

// ErrNotFound is returned when a table or column does not exist.
var ErrNotFound = errors.New("store: not found")

// Table is a named collection of equal-length float64 columns, optionally
// carrying grid spatial indexes over (x, y) column pairs (IndexOn).
//
// A Table is safe for concurrent use. All state a reader touches —
// column storage, row count, spatial indexes and tombstones — lives in
// one immutable generation published under the write lock, so an index
// is never paired with columns it was not built from. Reads go through
// a View (Table.View), which pins one generation: a request that scans,
// then projects the selected rows and counts the table, takes one View
// and gets answers that all describe the same rows, however many
// appends, deletes, reloads or reclaiming compactions publish in
// between.
type Table struct {
	name    string
	colName []string
	colIdx  map[string]int

	mu         sync.RWMutex
	data       *tableData
	indexPairs [][2]int // registered index column pairs; rebuilt by BulkLoad

	counters *tableCounters

	// zoneStat is the per-column zone-map usefulness record feeding the
	// adaptive planner: when a column's zones have been consulted many
	// times and almost never pruned or settled a cell, later probes skip
	// its zone checks (and a pure attribute filter falls back to the
	// sharded linear scan) instead of paying for them on every cell.
	zoneStat []zoneColStat

	// backendMode holds the index backend policy code (backendAuto /
	// backendGrid / backendRTree) consulted at every index-build point;
	// see backend.go.
	backendMode atomic.Int32

	// autoCompact holds the float64 bits of the auto-compaction
	// threshold fraction (0 = disabled); compacting gates the single
	// background compaction goroutine; compactMu serializes Compact
	// bodies (manual and automatic).
	autoCompact atomic.Uint64
	compacting  atomic.Bool
	compactMu   sync.Mutex

	// ttlMu guards the retention policy (SetTTL); Compact enforces it.
	ttlMu  sync.Mutex
	ttlCol int // timestamp column ordinal; -1 when no policy
	ttlAge time.Duration
}

// zoneColStat accumulates, for one column, how often its per-cell zone
// maps were consulted by filtered probes and how often the consult was
// decisive (pruned the cell or settled the predicate as all-pass).
type zoneColStat struct {
	evaluated atomic.Int64
	decisive  atomic.Int64
}

const (
	// zoneAdaptMinCells is how many zone consults a column must
	// accumulate before the adaptive skip may engage.
	zoneAdaptMinCells = 4096
	// zoneAdaptDecisiveDiv defines "useless": fewer than 1 decisive
	// consult per this many is noise, not pruning.
	zoneAdaptDecisiveDiv = 64
)

// tableCounters is a table's read-path usage block, for /metrics. It is
// allocated separately from the Table so a Store can retain it after
// the table is replaced (PublishSample, PublishCatalog): increments
// from scans still in flight on the replaced table keep landing in the
// retained block, which keeps the store aggregates monotonic (they are
// exported as Prometheus _total series).
type tableCounters struct {
	indexProbes   atomic.Int64 // rectangle probes answered from a spatial index
	scanFallbacks atomic.Int64 // rectangle probes that fell back to a linear scan

	// Zone-map counters, accumulated by rectangle probes that carried
	// at least one residual predicate.
	filteredProbes   atomic.Int64 // filtered probes answered from an index
	zoneCellsTouched atomic.Int64 // cells considered by filtered probes
	zoneCellsPruned  atomic.Int64 // cells discarded wholesale by zone maps
	zoneSkips        atomic.Int64 // predicates whose zone checks were skipped

	// Batch-kernel counters.
	batchedRows atomic.Int64 // rows evaluated through selection-vector kernels
	probeShards atomic.Int64 // index-probe shards run (1 per serial probe)

	// Ingest counters.
	compactions     atomic.Int64 // delta-into-generation compactions published
	compactionNanos atomic.Int64 // wall time spent building + publishing them

	// Retention counters.
	deletedRows   atomic.Int64 // rows tombstoned by DeleteRect/DeleteWhere/TTL
	reclaimedRows atomic.Int64 // tombstoned rows physically dropped by compaction

	// kNN counters.
	nearestQueries atomic.Int64 // Nearest calls served (any backend)
}

// tableData is one immutable generation of a table: column storage, row
// count, and the spatial indexes built from exactly these columns. A new
// generation is published (under the table write lock) for every write;
// readers grab the pointer once and never see a torn state.
type tableData struct {
	cols    [][]float64
	n       int
	indexes []spatialIndex
	// dead is the generation's tombstone set: rows < n whose bit is set
	// are deleted and invisible to every read. Like everything else in
	// the generation it is immutable — DeleteWhere publishes a fresh
	// bitmap (copy-on-write via orBitmapRows, always base-0) — so a
	// reader's columns, indexes, and tombstones are one consistent
	// snapshot with no extra locking. nil means no deletions. Compaction
	// physically drops the dead rows and publishes dead=nil with a
	// bumped loadGen (row ids shift when survivors are rewritten).
	dead *rowBitmap
	// loadGen counts content replacements (BulkLoad, snapshot restore,
	// reclaiming compaction); Append, IndexOn, and non-reclaiming
	// Compact preserve it. A background compaction uses it to detect
	// that the columns it built against were replaced mid-build, in
	// which case its indexes describe dead data and must not be
	// published.
	loadGen uint64
}

// deadCount returns the number of tombstoned rows in this generation.
func (d *tableData) deadCount() int {
	if d.dead == nil {
		return 0
	}
	return d.dead.count
}

// indexFor returns this generation's index over the column pair, or nil.
func (d *tableData) indexFor(xi, yi int) spatialIndex {
	for _, ix := range d.indexes {
		if x, y := ix.pair(); x == xi && y == yi {
			return ix
		}
	}
	return nil
}

// NewTable creates a table with the given column names. It returns an
// error when names are empty or duplicated.
func NewTable(name string, columns ...string) (*Table, error) {
	if name == "" {
		return nil, errors.New("store: table name must be non-empty")
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("store: table %q needs at least one column", name)
	}
	t := &Table{
		name:     name,
		colName:  append([]string(nil), columns...),
		colIdx:   make(map[string]int, len(columns)),
		data:     &tableData{cols: make([][]float64, len(columns))},
		counters: &tableCounters{},
		zoneStat: make([]zoneColStat, len(columns)),
		ttlCol:   -1,
	}
	for i, c := range columns {
		if c == "" {
			return nil, fmt.Errorf("store: table %q column %d has empty name", name, i)
		}
		if _, dup := t.colIdx[c]; dup {
			return nil, fmt.Errorf("store: table %q has duplicate column %q", name, c)
		}
		t.colIdx[c] = i
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column names in declaration order.
func (t *Table) Columns() []string { return append([]string(nil), t.colName...) }

// snapshot returns the current generation. The returned struct and
// everything it references are immutable: writers publish fresh
// generations instead of mutating, and Append only writes past the
// generation's row count, so the first n rows of each column never
// change after the snapshot is taken.
func (t *Table) snapshot() *tableData {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.data
}

// Append adds one row; values must match the column count. The row is
// absorbed into every spatial index's delta in the same critical
// section it becomes visible in, so scans keep answering at indexed
// speed under ingest (rows appended before the delta machinery existed
// — or past its id capacity — take the linear tail path until the next
// compaction or rebuild). When auto-compaction is enabled
// (SetAutoCompact), crossing the delta threshold fires a background
// merge into a fresh immutable generation.
func (t *Table) Append(values ...float64) error {
	if len(values) != len(t.colName) {
		return fmt.Errorf("store: table %q: %d values for %d columns", t.name, len(values), len(t.colName))
	}
	t.mu.Lock()
	d := t.data
	cols := make([][]float64, len(d.cols))
	for i, v := range values {
		cols[i] = append(d.cols[i], v)
	}
	for _, ix := range d.indexes {
		if dx := ix.deltaIdx(); dx != nil {
			dx.absorbRange(cols, d.n, d.n+1)
		}
	}
	t.data = &tableData{cols: cols, n: d.n + 1, indexes: d.indexes, dead: d.dead, loadGen: d.loadGen}
	t.mu.Unlock()
	t.maybeCompact()
	return nil
}

// AppendRows adds a batch of rows given as parallel column slices (the
// ingest endpoint's shape): one lock acquisition, one generation
// publish, and one delta absorption pass for the whole batch. Column
// order must match the schema and all slices must have equal length.
func (t *Table) AppendRows(cols ...[]float64) error {
	if len(cols) != len(t.colName) {
		return fmt.Errorf("store: table %q: %d columns for %d-column schema", t.name, len(cols), len(t.colName))
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			return fmt.Errorf("store: table %q: column %q has %d rows, expected %d", t.name, t.colName[i], len(c), n)
		}
	}
	if n == 0 {
		return nil
	}
	t.mu.Lock()
	d := t.data
	fresh := make([][]float64, len(d.cols))
	for i := range fresh {
		fresh[i] = append(d.cols[i], cols[i]...)
	}
	for _, ix := range d.indexes {
		if dx := ix.deltaIdx(); dx != nil {
			dx.absorbRange(fresh, d.n, d.n+n)
		}
	}
	t.data = &tableData{cols: fresh, n: d.n + n, indexes: d.indexes, dead: d.dead, loadGen: d.loadGen}
	t.mu.Unlock()
	t.maybeCompact()
	return nil
}

// BulkLoad replaces the table contents with the given parallel column
// slices (copied into fresh storage, so concurrent readers keep their old
// snapshot) and rebuilds every registered spatial index against the new
// contents before publishing, keeping index and columns snapshot-
// consistent. Column order must match the schema.
func (t *Table) BulkLoad(cols ...[]float64) error {
	if len(cols) != len(t.colName) {
		return fmt.Errorf("store: table %q: %d columns for %d-column schema", t.name, len(cols), len(t.colName))
	}
	n := -1
	for i, c := range cols {
		if n == -1 {
			n = len(c)
		} else if len(c) != n {
			return fmt.Errorf("store: table %q: column %q has %d rows, expected %d", t.name, t.colName[i], len(c), n)
		}
	}
	fresh := make([][]float64, len(cols))
	for i, c := range cols {
		fresh[i] = append(make([]float64, 0, len(c)), c...)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var indexes []spatialIndex
	mode := t.backendMode.Load()
	for _, p := range t.indexPairs {
		if ix := buildSpatialIndex(p[0], p[1], fresh, n, mode); ix != nil {
			indexes = append(indexes, ix)
		}
	}
	t.data = &tableData{cols: fresh, n: n, indexes: indexes, loadGen: t.data.loadGen + 1}
	// New contents, new value distribution: the adaptive zone-skip
	// verdicts earned against the old data no longer apply, and a
	// frozen skip could permanently disable pruning that the new data
	// would reward. Start the evidence over.
	t.resetZoneStat()
	return nil
}

// resetZoneStat zeroes the adaptive zone-consult record so skip
// decisions are re-earned against current data.
func (t *Table) resetZoneStat() {
	for i := range t.zoneStat {
		t.zoneStat[i].evaluated.Store(0)
		t.zoneStat[i].decisive.Store(0)
	}
}

// IndexOn registers a grid spatial index over the (xCol, yCol) pair and
// builds it against the current contents. The pair stays registered:
// every later BulkLoad rebuilds the index against the fresh columns
// before publishing them. Calling IndexOn again for the same pair
// rebuilds it in place — the way to re-absorb rows accumulated through
// Append into the indexed set.
//
// The build runs under the table's write lock — IndexOn is a publish-
// time operation (bulk load, sample registration), not a serving-path
// one.
func (t *Table) IndexOn(xCol, yCol string) error {
	xi, ok := t.colIdx[xCol]
	if !ok {
		return fmt.Errorf("store: table %q column %q: %w", t.name, xCol, ErrNotFound)
	}
	yi, ok := t.colIdx[yCol]
	if !ok {
		return fmt.Errorf("store: table %q column %q: %w", t.name, yCol, ErrNotFound)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pair := [2]int{xi, yi}
	registered := false
	for _, p := range t.indexPairs {
		if p == pair {
			registered = true
			break
		}
	}
	if !registered {
		t.indexPairs = append(t.indexPairs, pair)
	}
	d := t.data
	mode := t.backendMode.Load()
	// Already covering the current generation (the common reload path:
	// BulkLoad just rebuilt every registered pair) with a backend the
	// current policy accepts — nothing to do.
	if registered {
		if old := d.indexFor(xi, yi); old != nil && old.rows() == d.n && backendSatisfies(mode, old.backend()) {
			return nil
		}
	}
	indexes := make([]spatialIndex, 0, len(d.indexes)+1)
	for _, old := range d.indexes {
		if ox, oy := old.pair(); ox != xi || oy != yi {
			indexes = append(indexes, old)
		}
	}
	if ix := buildSpatialIndex(xi, yi, d.cols, d.n, mode); ix != nil {
		indexes = append(indexes, ix)
	}
	t.data = &tableData{cols: d.cols, n: d.n, indexes: indexes, dead: d.dead, loadGen: d.loadGen}
	return nil
}

// Column returns a read-only snapshot view of the named column: the
// returned slice is never mutated by later writes to the table.
func (t *Table) Column(name string) ([]float64, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return nil, fmt.Errorf("store: table %q column %q: %w", t.name, name, ErrNotFound)
	}
	d := t.snapshot()
	return d.cols[i][:d.n], nil
}

// Pred is a conjunctive range predicate over columns: for each named
// column, the row value must be within [Min, Max]. This is the predicate
// shape visualization tools emit — axis ranges of the current viewport.
type Pred struct {
	Column   string
	Min, Max float64
}

// parallelScanMinRows is the table size above which linear predicate
// scans shard across CPUs. Below it the goroutine fan-out costs more
// than it saves.
const parallelScanMinRows = 1 << 16

// Scan returns the rows satisfying all predicates, evaluated against one
// consistent snapshot of the table. A nil or empty predicate list
// selects every row (as a dense range, without materializing ids).
// Large tables are scanned in parallel shards, one goroutine per CPU,
// concatenated in shard order so the result stays sorted.
func (t *Table) Scan(preds []Pred) (RowSet, error) {
	idx := make([]int, len(preds))
	for i, p := range preds {
		ci, ok := t.colIdx[p.Column]
		if !ok {
			return RowSet{}, fmt.Errorf("store: table %q column %q: %w", t.name, p.Column, ErrNotFound)
		}
		idx[i] = ci
	}
	d := t.snapshot()
	if len(preds) == 0 {
		return rangeMinusBitmap(0, d.n, d.dead), nil
	}
	cols := make([][]float64, len(preds))
	for i, ci := range idx {
		cols[i] = d.cols[ci]
	}
	return rowSetFromSorted(filterDeadInts(scanShards(cols, preds, d.n, nil), d.dead)), nil
}

// ScanStats describes how one View.ScanRects or View.Nearest call was
// answered, for the query layer's pruning report and the /metrics
// counters. Cell counts are zero on the fallback (linear) path and on
// the all-rows and full-extent fast paths, which never touch cells at
// all.
type ScanStats struct {
	// IndexProbe is true when a grid spatial index answered the call.
	IndexProbe bool
	// CellsTouched counts grid cells the rectangle overlapped.
	CellsTouched int
	// CellsPruned counts cells discarded wholesale because a zone map
	// proved no row in them can satisfy the residual predicates.
	CellsPruned int
	// CellsBulk counts cells whose rows were emitted without any
	// per-row test (geometrically covered and zone-covered).
	CellsBulk int
	// RowsExamined counts rows tested individually (boundary ring,
	// zone-inconclusive cells, extras, delta buckets, and any appended
	// tail the delta does not cover).
	RowsExamined int
	// DeltaRows counts the rows examined out of delta buckets — the
	// appended-but-not-yet-compacted set the probe reached through the
	// grid instead of a linear tail walk.
	DeltaRows int
	// ZonesSkipped counts predicates whose zone checks the adaptive
	// planner skipped because that column's zones had proven useless.
	ZonesSkipped int
	// BatchedRows counts the rows (out of RowsExamined) whose rectangle
	// and predicate tests ran through the selection-vector batch
	// kernels rather than the scalar per-row loops.
	BatchedRows int
	// ProbeShards counts the index-probe shards this scan ran: 1 for a
	// serial probe, more when the touched cell range was large enough
	// for collectCells to fan out across CPUs. Zero off the probe path.
	ProbeShards int
}

// unboundedRect matches every row: each comparison against ±Inf bounds
// is vacuous, including for rows with NaN or ±Inf coordinates.
var unboundedRect = geom.Rect{
	MinX: math.Inf(-1), MinY: math.Inf(-1),
	MaxX: math.Inf(1), MaxY: math.Inf(1),
}

// zoneSkipFor returns, per predicate, whether its column's zone checks
// should be skipped, or nil when none should. Skipping engages only
// after zoneAdaptMinCells consults with a decisive rate below
// 1/zoneAdaptDecisiveDiv.
func (t *Table) zoneSkipFor(pi []int) []bool {
	var skip []bool
	for k, ci := range pi {
		s := &t.zoneStat[ci]
		ev := s.evaluated.Load()
		if ev >= zoneAdaptMinCells && s.decisive.Load() < ev/zoneAdaptDecisiveDiv {
			if skip == nil {
				skip = make([]bool, len(pi))
			}
			skip[k] = true
		}
	}
	return skip
}

// normalizePreds folds NaN predicate bounds to the matching infinity
// (both mean "unbounded" under the comparison semantics), copying the
// slice only when a fold is needed.
func normalizePreds(preds []Pred) []Pred {
	for i, p := range preds {
		if !math.IsNaN(p.Min) && !math.IsNaN(p.Max) {
			continue
		}
		out := append([]Pred(nil), preds...)
		for j := i; j < len(out); j++ {
			if math.IsNaN(out[j].Min) {
				out[j].Min = math.Inf(-1)
			}
			if math.IsNaN(out[j].Max) {
				out[j].Max = math.Inf(1)
			}
		}
		return out
	}
	return preds
}

// scanShards evaluates preds over rows [0, n), splitting the row space
// across CPUs when the table is large. Shards are concatenated in order,
// so the returned ids are sorted ascending.
func scanShards(cols [][]float64, preds []Pred, n int, cn *canceler) []int {
	workers := runtime.GOMAXPROCS(0)
	if maxShards := n / (parallelScanMinRows / 4); workers > maxShards {
		workers = maxShards
	}
	if n < parallelScanMinRows || workers <= 1 {
		return scanRange(cols, preds, 0, n, nil, cn)
	}
	parts := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		// Each shard forks the canceler: the tick counter is
		// unsynchronized, while the underlying context is shared — all
		// shards observe the same cancellation.
		go func(w, lo, hi int, cn *canceler) {
			defer wg.Done()
			parts[w] = scanRange(cols, preds, lo, hi, nil, cn)
		}(w, lo, hi, cn.fork())
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]int, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// forceScalarKernels routes every scan through the scalar reference
// loops instead of the batch kernels. It exists for the kernel-vs-scalar
// benchmark variants and is only flipped by single-threaded test setup,
// never concurrently with scans.
var forceScalarKernels bool

// scanRange is the sequential scan kernel: it appends the rows of
// [lo, hi) matching every predicate to out. Large ranges run through
// the selection-vector batch kernels block by block — the first
// predicate seeds a selection from a contiguous column stride, later
// predicates refine it in place — while tiny ranges and id spaces past
// the int32 selection domain keep the scalar per-row loop.
func scanRange(cols [][]float64, preds []Pred, lo, hi int, out []int, cn *canceler) []int {
	if len(preds) == 0 {
		for r := lo; r < hi; r++ {
			out = append(out, r)
		}
		return out
	}
	if forceScalarKernels || hi-lo < kernelMinRows || hi > math.MaxInt32 {
		if cn == nil {
			return scanRangeScalar(cols, preds, lo, hi, out)
		}
		// Chunk the scalar loop at the same block size as the kernels so
		// cancellation latency does not depend on which path ran.
		for b := lo; b < hi; b += scanBatchRows {
			if cn.stop() {
				return out
			}
			out = scanRangeScalar(cols, preds, b, min(b+scanBatchRows, hi), out)
		}
		return out
	}
	// Two selection buffers, ping-ponged between passes: refining into
	// the other buffer (selGather) instead of compacting in place keeps
	// the survivor stores from aliasing the ids the same pass is about
	// to load.
	var selA, selB [scanBatchRows]int32
	for b := lo; b < hi; b += scanBatchRows {
		// Kernel-block boundary: one counter-gated poll per 4096-row
		// block; a canceled scan returns its partial ids, which the
		// entry point discards when it sees the context error.
		if cn.stop() {
			return out
		}
		e := min(b+scanBatchRows, hi)
		src, dst := selA[:], selB[:]
		k := selRange(src, cols[0][b:e], int32(b), preds[0].Min, preds[0].Max)
		for i := 1; i < len(preds) && k > 0; i++ {
			k = selGather(dst, src[:k], cols[i], preds[i].Min, preds[i].Max)
			src, dst = dst, src
		}
		out = appendSel(out, src[:k])
	}
	return out
}

// SampleMeta records the lineage of a sample table in the catalog.
type SampleMeta struct {
	// Table is the sample table's name.
	Table string
	// Source is the base table the sample was drawn from.
	Source string
	// Method is the sampling method ("vas", "uniform", ...).
	Method string
	// XCol, YCol are the indexed column pair the sample was built on.
	XCol, YCol string
	// Size is the number of sample rows.
	Size int
	// HasDensity reports whether the sample carries a §V count column.
	HasDensity bool
}

// Store is a catalog of base tables and sample tables. Safe for concurrent
// use.
type Store struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	samples map[string][]SampleMeta // source table -> its samples

	// retired holds the counter blocks of dropped tables (16 bytes per
	// drop — negligible even for long-lived servers replacing samples
	// continuously). Retaining the live block, rather than folding a
	// snapshot of its value, means increments from scans racing the drop
	// still land in the totals: the Probes/Fallbacks aggregates can
	// never decrease across /metrics scrapes.
	retired []*tableCounters
}

// New returns an empty store.
func New() *Store {
	return &Store{
		tables:  make(map[string]*Table),
		samples: make(map[string][]SampleMeta),
	}
}

// CreateTable registers a new table. It fails when the name is taken.
func (s *Store) CreateTable(name string, columns ...string) (*Table, error) {
	t, err := NewTable(name, columns...)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[name]; exists {
		return nil, fmt.Errorf("store: table %q already exists", name)
	}
	s.tables[name] = t
	return t, nil
}

// Table looks up a table by name.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("store: table %q: %w", name, ErrNotFound)
	}
	return t, nil
}

// dropLocked removes a table and every catalog reference to it. The
// table's read-path counter block is retained so the aggregate stats
// stay monotonic. Caller holds s.mu.
func (s *Store) dropLocked(name string) {
	t, ok := s.tables[name]
	if !ok {
		return
	}
	s.retired = append(s.retired, t.counters)
	delete(s.tables, name)
	delete(s.samples, name)
	for src, metas := range s.samples {
		kept := metas[:0]
		for _, m := range metas {
			if m.Table != name {
				kept = append(kept, m)
			}
		}
		s.samples[src] = kept
	}
}

// PublishSample atomically installs a fully built sample table together
// with its catalog registration. Any previous table of the same name
// (and its catalog entries) is removed in the same critical section the
// replacement becomes visible in, so concurrent readers always observe
// a complete catalog — never the gap a drop-then-recreate sequence
// would open, where a query racing the rebuild finds no sample at all.
// Build the table (BulkLoad, IndexOn) before publishing; it must not be
// registered in the store yet.
func (s *Store) PublishSample(t *Table, meta SampleMeta) error {
	if t == nil {
		return errors.New("store: publish: nil table")
	}
	if t.name != meta.Table {
		return fmt.Errorf("store: publish: table %q does not match meta table %q", t.name, meta.Table)
	}
	if meta.Size <= 0 {
		return fmt.Errorf("store: sample %q has non-positive size %d", meta.Table, meta.Size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[meta.Source]; !ok {
		return fmt.Errorf("store: source table %q: %w", meta.Source, ErrNotFound)
	}
	if existing, ok := s.tables[meta.Table]; ok && existing == t {
		return fmt.Errorf("store: publish: table %q is already registered", meta.Table)
	}
	s.dropLocked(meta.Table)
	s.tables[meta.Table] = t
	s.samples[meta.Source] = append(s.samples[meta.Source], meta)
	sort.Slice(s.samples[meta.Source], func(a, b int) bool {
		return s.samples[meta.Source][a].Size < s.samples[meta.Source][b].Size
	})
	return nil
}

// TableNames returns all table names sorted.
func (s *Store) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterSample attaches sample metadata to its source table. The sample
// table itself must already exist in the store.
func (s *Store) RegisterSample(meta SampleMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[meta.Table]; !ok {
		return fmt.Errorf("store: sample table %q: %w", meta.Table, ErrNotFound)
	}
	if _, ok := s.tables[meta.Source]; !ok {
		return fmt.Errorf("store: source table %q: %w", meta.Source, ErrNotFound)
	}
	if meta.Size <= 0 {
		return fmt.Errorf("store: sample %q has non-positive size %d", meta.Table, meta.Size)
	}
	s.samples[meta.Source] = append(s.samples[meta.Source], meta)
	sort.Slice(s.samples[meta.Source], func(a, b int) bool {
		return s.samples[meta.Source][a].Size < s.samples[meta.Source][b].Size
	})
	return nil
}

// SamplesOf returns the registered samples of a source table, ascending by
// size.
func (s *Store) SamplesOf(source string) []SampleMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]SampleMeta(nil), s.samples[source]...)
}

// IndexStats aggregates spatial-index state and read-path usage across
// every table in the store, for the /metrics endpoint.
type IndexStats struct {
	// IndexedTables counts tables carrying at least one spatial index.
	IndexedTables int
	// Indexes counts spatial indexes across all tables.
	Indexes int
	// IndexedRows sums the rows covered by those indexes.
	IndexedRows int64
	// Cells sums the grid cells across all indexes.
	Cells int64
	// Probes counts rectangle probes answered from a spatial index,
	// including by since-dropped tables (monotonic).
	Probes int64
	// Fallbacks counts rectangle probes that fell back to a linear scan,
	// including by since-dropped tables (monotonic).
	Fallbacks int64
	// FilteredProbes counts index probes that carried at least one
	// residual predicate (monotonic, survives drops).
	FilteredProbes int64
	// ZoneCellsTouched and ZoneCellsPruned count, across filtered
	// probes, the grid cells considered and the cells discarded
	// wholesale by zone maps (monotonic, survive drops). Their ratio is
	// the zone-map prune rate.
	ZoneCellsTouched int64
	ZoneCellsPruned  int64
	// ZoneSkips counts predicates whose zone checks the adaptive
	// planner skipped (monotonic, survives drops).
	ZoneSkips int64
	// BatchedRows counts rows evaluated by the selection-vector batch
	// kernels rather than the scalar row loop (monotonic, survives
	// drops); against RowsExamined-style totals it gives the batched
	// fraction of the read path.
	BatchedRows int64
	// ProbeShards counts the shards collectCells fanned index probes
	// out to (one per serial probe; >1 per probe when the touched cell
	// rows crossed the parallel threshold). Monotonic, survives drops.
	ProbeShards int64
	// DeltaRows and TailRows are point-in-time gauges summed over every
	// live table: rows absorbed into delta indexes since the last
	// compaction, and rows not covered by a base index at all (the two
	// agree unless a delta saturated) — the ingest pressure operators
	// watch before it turns into latency.
	DeltaRows int64
	TailRows  int64
	// Compactions counts published delta-into-generation merges;
	// CompactionSeconds is the wall time they spent building off the
	// read path (both monotonic, survive drops).
	Compactions       int64
	CompactionSeconds float64
	// TombstonedRows is a point-in-time gauge: rows across every live
	// table that are deleted but not yet physically reclaimed by
	// compaction.
	TombstonedRows int64
	// DeletedRows counts rows ever tombstoned (DeleteRect, DeleteWhere,
	// TTL enforcement); ReclaimedRows counts tombstoned rows physically
	// dropped by compaction rewrites. Both monotonic, survive drops.
	// DeletedRows − ReclaimedRows ≥ TombstonedRows (dropped tables take
	// their pending tombstones with them).
	DeletedRows   int64
	ReclaimedRows int64
	// NearestQueries counts View.Nearest calls served, any backend
	// (monotonic, survives drops).
	NearestQueries int64
	// PerTable breaks the ingest gauges down by live table, name-sorted,
	// for tables carrying at least one spatial index.
	PerTable []TableIngestStats
}

// TableIngestStats is one table's ingest-pressure gauge set.
type TableIngestStats struct {
	// Table is the table name.
	Table string
	// Rows is the table's current row count.
	Rows int64
	// TailRows is the largest per-index count of rows not covered by
	// the base index (appended since its build).
	TailRows int64
	// DeltaRows is the largest per-index count of appended rows the
	// delta has absorbed; it trails TailRows only when a delta
	// saturated.
	DeltaRows int64
	// LiveRows and DeadRows split Rows into the visible set and the
	// tombstoned-awaiting-reclaim set.
	LiveRows int64
	DeadRows int64
	// Backend names the spatial index implementation serving the table
	// ("grid" or "rtree"; the first index's, when several are present).
	Backend string
	// CellOccupancyP99 is the row-weighted 99th-percentile grid-cell
	// population measured at build time (the population of the cell the
	// 99th-percentile row lives in), and SkewRatio its ratio to the mean
	// cell population — the evidence the backend planner chose from (~1
	// for uniform scatter, large under clustering).
	CellOccupancyP99 float64
	SkewRatio        float64
}

// IndexStats returns a point-in-time aggregate over all tables.
func (s *Store) IndexStats() IndexStats {
	// One consistent membership snapshot: a table is in exactly one of
	// the two lists, so nothing is double-counted or missed.
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	retired := append([]*tableCounters(nil), s.retired...)
	s.mu.RUnlock()
	var st IndexStats
	for _, t := range tables {
		d := t.snapshot()
		if len(d.indexes) > 0 {
			st.IndexedTables++
		}
		var tailRows, deltaRows int64
		for _, ix := range d.indexes {
			st.Indexes++
			st.IndexedRows += int64(ix.rows())
			st.Cells += int64(ix.cells())
			if tail := int64(d.n - ix.rows()); tail > tailRows {
				tailRows = tail
			}
			if dx := ix.deltaIdx(); dx != nil {
				absorbed := int64(dx.coveredRows())
				if beyond := int64(d.n - ix.rows()); absorbed > beyond {
					// Absorbed rows past this reader's snapshot.
					absorbed = beyond
				}
				if absorbed > deltaRows {
					deltaRows = absorbed
				}
			}
		}
		dead := int64(d.deadCount())
		st.TombstonedRows += dead
		if len(d.indexes) > 0 {
			st.TailRows += tailRows
			st.DeltaRows += deltaRows
			p99, skew := d.indexes[0].occ()
			st.PerTable = append(st.PerTable, TableIngestStats{
				Table: t.name, Rows: int64(d.n), TailRows: tailRows, DeltaRows: deltaRows,
				LiveRows: int64(d.n) - dead, DeadRows: dead,
				Backend: d.indexes[0].backend(), CellOccupancyP99: p99, SkewRatio: skew,
			})
		}
		st.addCounters(t.counters)
	}
	for _, c := range retired {
		st.addCounters(c)
	}
	sort.Slice(st.PerTable, func(a, b int) bool { return st.PerTable[a].Table < st.PerTable[b].Table })
	return st
}

func (st *IndexStats) addCounters(c *tableCounters) {
	st.Probes += c.indexProbes.Load()
	st.Fallbacks += c.scanFallbacks.Load()
	st.FilteredProbes += c.filteredProbes.Load()
	st.ZoneCellsTouched += c.zoneCellsTouched.Load()
	st.ZoneCellsPruned += c.zoneCellsPruned.Load()
	st.ZoneSkips += c.zoneSkips.Load()
	st.BatchedRows += c.batchedRows.Load()
	st.ProbeShards += c.probeShards.Load()
	st.Compactions += c.compactions.Load()
	st.CompactionSeconds += float64(c.compactionNanos.Load()) / 1e9
	st.DeletedRows += c.deletedRows.Load()
	st.ReclaimedRows += c.reclaimedRows.Load()
	st.NearestQueries += c.nearestQueries.Load()
}
