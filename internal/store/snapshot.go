package store

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/strtree"
)

// This file is the store side of catalog persistence (internal/snapshot
// owns the on-disk format): it exports a table's fully materialized
// generation — column storage plus every CSR grid index and its zone
// maps — and re-admits one without re-running any index build, so a
// server can cold-start from a snapshot file in the time it takes to
// read it. Because snapshot bytes arrive from disk (and, transitively,
// from anything that can write the snapshot directory),
// TableFromSnapshot treats its input as hostile: every structural
// invariant the probe machinery relies on (offset monotonicity, row-id
// ranges, zone-map extents) is verified before a Table exists, and a
// violation returns an error rather than publishing a table that could
// panic a scan.

// IndexSnapshot is the exported form of one CSR grid spatial index,
// mirroring rectIndex field for field.
type IndexSnapshot struct {
	// XCol, YCol are ordinals into the table's column list.
	XCol, YCol int
	// Bounds is the finite extent the grid is stretched over.
	Bounds geom.Rect
	// NX, NY are the grid dimensions; CellW, CellH the cell extents.
	NX, NY       int
	CellW, CellH float64
	// CellOff and RowID are the CSR packing: CellOff[c]..CellOff[c+1]
	// delimit cell c's ascending run of row ids in RowID.
	CellOff []int32
	RowID   []int32
	// Extra holds the ascending ids of rows with a non-finite coordinate.
	Extra []int32
	// NumRows is the number of rows the index covers (rows at or beyond
	// it take the table's unindexed tail path).
	NumRows int
	// ZMin, ZMax, ZNaN are the per-(column, cell) zone maps, laid out
	// flat as [col·cells + cell].
	ZMin, ZMax []float64
	ZNaN       []bool
}

// TreeIndexSnapshot is the exported form of one packed STR R-tree
// spatial index, mirroring treeIndex field for field with rectangles
// flattened to float64 quads (MinX, MinY, MaxX, MaxY per entry) so the
// on-disk codec stays an array-of-scalars format.
type TreeIndexSnapshot struct {
	// XCol, YCol are ordinals into the table's column list.
	XCol, YCol int
	// Bounds, NX, NY, CellW, CellH are the DELTA grid geometry — not
	// probe geometry; they let appended rows bucket identically to the
	// grid backend after a restore.
	Bounds       geom.Rect
	NX, NY       int
	CellW, CellH float64
	// RowID packs the finite rows in leaf order (ascending within each
	// leaf); LeafOff delimits leaf runs; LeafMBR holds one rectangle
	// quad per leaf.
	RowID   []int32
	LeafOff []int32
	LeafMBR []float64
	// Extra holds the ascending ids of rows with a non-finite coordinate.
	Extra []int32
	// NumRows is the number of rows the index covers.
	NumRows int
	// The packed node hierarchy, one entry per node (root last):
	// NodeMBR is a rectangle quad per node; children are
	// nodes[NodeLo:NodeHi] or leaves when NodeLeafKids; NodeLeafLo/Hi
	// give the contiguous leaf span the subtree covers.
	NodeMBR      []float64
	NodeLo       []int32
	NodeHi       []int32
	NodeLeafLo   []int32
	NodeLeafHi   []int32
	NodeLeafKids []bool
	// Per-(column, leaf) and per-(column, node) zone maps, flat as
	// [col·numLeaves + leaf] and [col·numNodes + node].
	ZMin, ZMax   []float64
	ZNaN         []bool
	NZMin, NZMax []float64
	NZNaN        []bool
	// OccP99, Skew are the build-time occupancy statistics the backend
	// planner consulted.
	OccP99, Skew float64
}

// TableSnapshot is the exported form of one table generation: the
// column schema and data plus every spatial index built from exactly
// those columns.
//
// The slices alias live generation storage when produced by
// SnapshotGeneration, and are retained by TableFromSnapshot — in both
// directions they must be treated as immutable after the call.
type TableSnapshot struct {
	Name    string
	Columns []string
	// Cols holds the column data, parallel to Columns, each of length
	// NumRows.
	Cols    [][]float64
	NumRows int
	Indexes []IndexSnapshot
	// TreeIndexes holds the R-tree-backed indexes.
	TreeIndexes []TreeIndexSnapshot
	// Dead holds the ascending, duplicate-free ids of tombstoned rows —
	// deleted but not yet physically reclaimed at capture time. Empty
	// after every reclaiming compaction.
	Dead []int32
}

// flattenRects packs rectangles into (MinX, MinY, MaxX, MaxY) quads.
func flattenRects(rs []geom.Rect) []float64 {
	out := make([]float64, 0, 4*len(rs))
	for _, r := range rs {
		out = append(out, r.MinX, r.MinY, r.MaxX, r.MaxY)
	}
	return out
}

// unflattenRects unpacks (MinX, MinY, MaxX, MaxY) quads; len(q) must be
// a multiple of 4.
func unflattenRects(q []float64) []geom.Rect {
	out := make([]geom.Rect, len(q)/4)
	for i := range out {
		out[i] = geom.Rect{MinX: q[4*i], MinY: q[4*i+1], MaxX: q[4*i+2], MaxY: q[4*i+3]}
	}
	return out
}

// SnapshotGeneration exports the table's current generation. The
// returned snapshot shares the generation's immutable storage; callers
// must not mutate any slice it carries.
func (t *Table) SnapshotGeneration() TableSnapshot {
	d := t.snapshot()
	ts := TableSnapshot{
		Name:    t.name,
		Columns: t.Columns(),
		Cols:    make([][]float64, len(d.cols)),
		NumRows: d.n,
	}
	for i, c := range d.cols {
		ts.Cols[i] = c[:d.n]
	}
	if d.dead != nil && d.dead.count > 0 {
		ts.Dead = make([]int32, 0, d.dead.count)
		d.dead.forEach(func(r int) { ts.Dead = append(ts.Dead, int32(r)) })
	}
	for _, six := range d.indexes {
		switch ix := six.(type) {
		case *rectIndex:
			ts.Indexes = append(ts.Indexes, IndexSnapshot{
				XCol: ix.xi, YCol: ix.yi,
				Bounds: ix.bounds,
				NX:     ix.nx, NY: ix.ny,
				CellW: ix.cellW, CellH: ix.cellH,
				CellOff: ix.cellOff,
				RowID:   ix.rowID,
				Extra:   ix.extra,
				NumRows: ix.n,
				ZMin:    ix.zmin, ZMax: ix.zmax, ZNaN: ix.znan,
			})
		case *treeIndex:
			tis := TreeIndexSnapshot{
				XCol: ix.xi, YCol: ix.yi,
				Bounds: ix.bounds,
				NX:     ix.nx, NY: ix.ny,
				CellW: ix.cellW, CellH: ix.cellH,
				RowID:   ix.Ord,
				LeafOff: ix.LeafOff,
				LeafMBR: flattenRects(ix.LeafMBR),
				Extra:   ix.extra,
				NumRows: ix.n,
				ZMin:    ix.zmin, ZMax: ix.zmax, ZNaN: ix.znan,
				NZMin: ix.nzmin, NZMax: ix.nzmax, NZNaN: ix.nznan,
				OccP99: ix.occP99, Skew: ix.occSkew,
			}
			if nn := len(ix.Nodes); nn > 0 {
				tis.NodeMBR = make([]float64, 0, 4*nn)
				tis.NodeLo = make([]int32, nn)
				tis.NodeHi = make([]int32, nn)
				tis.NodeLeafLo = make([]int32, nn)
				tis.NodeLeafHi = make([]int32, nn)
				tis.NodeLeafKids = make([]bool, nn)
				for i, nd := range ix.Nodes {
					tis.NodeMBR = append(tis.NodeMBR, nd.MBR.MinX, nd.MBR.MinY, nd.MBR.MaxX, nd.MBR.MaxY)
					tis.NodeLo[i], tis.NodeHi[i] = nd.Lo, nd.Hi
					tis.NodeLeafLo[i], tis.NodeLeafHi[i] = nd.LeafLo, nd.LeafHi
					tis.NodeLeafKids[i] = nd.LeafKids
				}
			}
			ts.TreeIndexes = append(ts.TreeIndexes, tis)
		}
	}
	return ts
}

// maxSnapshotGridDim bounds the grid dimensions a snapshot may claim.
// The builder caps itself at indexMaxDim; admitting a little headroom
// keeps old binaries able to load snapshots from a future build with a
// raised cap, while still refusing the absurd dimensions a corrupt or
// hostile file could claim (NX·NY drives several allocations).
const maxSnapshotGridDim = 4 * indexMaxDim

// TableFromSnapshot validates snap and materializes it as a Table
// without rebuilding anything: the CSR packings and zone maps are
// installed as the published generation exactly as captured. The
// snapshot's slices are retained; the caller must not modify them
// afterwards. Every structural invariant the read path depends on is
// checked — a snapshot that fails any of them yields an error and no
// Table.
func TableFromSnapshot(snap TableSnapshot) (*Table, error) {
	t, err := NewTable(snap.Name, snap.Columns...)
	if err != nil {
		return nil, err
	}
	if snap.NumRows < 0 {
		return nil, fmt.Errorf("store: snapshot table %q: negative row count %d", snap.Name, snap.NumRows)
	}
	if len(snap.Cols) != len(snap.Columns) {
		return nil, fmt.Errorf("store: snapshot table %q: %d column slices for %d columns",
			snap.Name, len(snap.Cols), len(snap.Columns))
	}
	for i, c := range snap.Cols {
		if len(c) != snap.NumRows {
			return nil, fmt.Errorf("store: snapshot table %q: column %q has %d rows, expected %d",
				snap.Name, snap.Columns[i], len(c), snap.NumRows)
		}
	}
	d := &tableData{cols: snap.Cols, n: snap.NumRows}
	if len(snap.Dead) > 0 {
		prev := int32(-1)
		for _, id := range snap.Dead {
			if id <= prev {
				return nil, fmt.Errorf("store: snapshot table %q: tombstone ids not ascending (%d after %d)",
					snap.Name, id, prev)
			}
			if id < 0 || int(id) >= snap.NumRows {
				return nil, fmt.Errorf("store: snapshot table %q: tombstone id %d out of range [0,%d)",
					snap.Name, id, snap.NumRows)
			}
			prev = id
		}
		ids := make([]int, len(snap.Dead))
		for i, id := range snap.Dead {
			ids[i] = int(id)
		}
		// orBitmapRows keeps the bitmap base-0, the shape the read path's
		// refine kernel indexes directly.
		d.dead, _ = orBitmapRows(nil, ids)
	}
	seenPair := make(map[[2]int]bool, len(snap.Indexes)+len(snap.TreeIndexes))
	register := func(ix spatialIndex) error {
		xi, yi := ix.pair()
		pair := [2]int{xi, yi}
		if seenPair[pair] {
			return fmt.Errorf("store: snapshot table %q: duplicate index over columns (%d,%d)",
				snap.Name, xi, yi)
		}
		seenPair[pair] = true
		d.indexes = append(d.indexes, ix)
		// Register the pair so a later BulkLoad rebuilds it, exactly as
		// if IndexOn had been called.
		t.indexPairs = append(t.indexPairs, pair)
		return nil
	}
	for i, is := range snap.Indexes {
		ix, err := indexFromSnapshot(snap.Name, is, len(snap.Cols), snap.NumRows)
		if err != nil {
			return nil, fmt.Errorf("store: snapshot table %q index %d: %w", snap.Name, i, err)
		}
		if err := register(ix); err != nil {
			return nil, err
		}
	}
	for i, is := range snap.TreeIndexes {
		ix, err := treeFromSnapshot(is, len(snap.Cols), snap.NumRows)
		if err != nil {
			return nil, fmt.Errorf("store: snapshot table %q tree index %d: %w", snap.Name, i, err)
		}
		if err := register(ix); err != nil {
			return nil, err
		}
	}
	// A snapshot saved mid-ingest carries rows past its indexes'
	// coverage (the appended tail at save time, and any tail-log rows
	// replayed by the loader land the same way via Append). Absorb them
	// into the fresh deltas now so the restored table probes at indexed
	// speed from its first request, exactly like the live table it was
	// captured from.
	for _, ix := range d.indexes {
		ix.deltaIdx().absorbRange(d.cols, ix.rows(), d.n)
	}
	t.data = d
	return t, nil
}

// indexFromSnapshot validates one index snapshot against its table's
// column count and row count and converts it to a rectIndex.
func indexFromSnapshot(table string, is IndexSnapshot, ncols, tableRows int) (*rectIndex, error) {
	if is.XCol < 0 || is.XCol >= ncols || is.YCol < 0 || is.YCol >= ncols {
		return nil, fmt.Errorf("column pair (%d,%d) out of range for %d columns", is.XCol, is.YCol, ncols)
	}
	if is.NumRows < 0 || is.NumRows > tableRows {
		return nil, fmt.Errorf("covers %d rows of a %d-row table", is.NumRows, tableRows)
	}
	ix := &rectIndex{
		gridGeom: gridGeom{
			xi: is.XCol, yi: is.YCol,
			bounds: is.Bounds,
			nx:     is.NX, ny: is.NY,
			cellW: is.CellW, cellH: is.CellH,
			n: is.NumRows,
		},
		cellOff: is.CellOff,
		rowID:   is.RowID,
		extra:   is.Extra,
		zmin:    is.ZMin, zmax: is.ZMax, znan: is.ZNaN,
	}
	ix.delta = newDeltaIndex(&ix.gridGeom, ncols)
	if is.NumRows == 0 {
		// An empty index has no grid at all (buildRectIndex returns
		// before sizing one); any grid payload here is corruption.
		if is.NX != 0 || is.NY != 0 || len(is.CellOff) != 0 || len(is.RowID) != 0 ||
			len(is.Extra) != 0 || len(is.ZMin) != 0 || len(is.ZMax) != 0 || len(is.ZNaN) != 0 {
			return nil, errors.New("empty index carries grid data")
		}
		return ix, nil
	}
	if is.NX < 1 || is.NY < 1 || is.NX > maxSnapshotGridDim || is.NY > maxSnapshotGridDim {
		return nil, fmt.Errorf("grid %dx%d out of range [1,%d]", is.NX, is.NY, maxSnapshotGridDim)
	}
	if !(is.CellW > 0) || !(is.CellH > 0) || math.IsInf(is.CellW, 0) || math.IsInf(is.CellH, 0) {
		return nil, fmt.Errorf("cell extent %gx%g is not positive finite", is.CellW, is.CellH)
	}
	if !isFinite(is.Bounds.MinX) || !isFinite(is.Bounds.MinY) ||
		!isFinite(is.Bounds.MaxX) || !isFinite(is.Bounds.MaxY) || is.Bounds.IsEmpty() {
		return nil, fmt.Errorf("bounds %v are not a finite non-empty rectangle", is.Bounds)
	}
	cells := is.NX * is.NY
	if len(is.CellOff) != cells+1 {
		return nil, fmt.Errorf("%d cell offsets for %d cells", len(is.CellOff), cells)
	}
	if is.CellOff[0] != 0 {
		return nil, fmt.Errorf("cell offsets start at %d, not 0", is.CellOff[0])
	}
	for c := 1; c <= cells; c++ {
		if is.CellOff[c] < is.CellOff[c-1] {
			return nil, fmt.Errorf("cell offsets decrease at cell %d", c)
		}
	}
	if int(is.CellOff[cells]) != len(is.RowID) {
		return nil, fmt.Errorf("cell offsets cover %d rows, row-id packing has %d", is.CellOff[cells], len(is.RowID))
	}
	if len(is.RowID)+len(is.Extra) != is.NumRows {
		return nil, fmt.Errorf("%d binned + %d extra rows for a %d-row index",
			len(is.RowID), len(is.Extra), is.NumRows)
	}
	if err := checkRowRuns("cell", is.CellOff, is.RowID, is.Extra, is.NumRows); err != nil {
		return nil, err
	}
	if len(is.RowID) == 0 {
		return nil, errors.New("index with no binned rows should not carry a grid")
	}
	if len(is.ZMin) != ncols*cells || len(is.ZMax) != ncols*cells || len(is.ZNaN) != ncols*cells {
		return nil, fmt.Errorf("zone maps sized %d/%d/%d for %d columns x %d cells",
			len(is.ZMin), len(is.ZMax), len(is.ZNaN), ncols, cells)
	}
	// The snapshot format predates the occupancy statistics; the CSR
	// offsets are the per-cell histogram, so rederive them exactly.
	counts := make([]int32, cells)
	for c := 0; c < cells; c++ {
		counts[c] = is.CellOff[c+1] - is.CellOff[c]
	}
	ix.occP99, ix.occSkew = occFromCounts(counts, len(is.RowID))
	return ix, nil
}

// checkRowRuns verifies that each of an index's numRows rows appears
// exactly once: in one of the runs rowID[off[u]:off[u+1]] with ids
// ascending within the run, or in the ascending extras list. The
// probes' sortedness and bounds guarantees all hang off this. off must
// already be checked monotone and covering rowID.
func checkRowRuns(unit string, off, rowID, extra []int32, numRows int) error {
	seen := make([]bool, numRows)
	for u := 0; u+1 < len(off); u++ {
		prev := int32(-1)
		for _, id := range rowID[off[u]:off[u+1]] {
			if id < 0 || int(id) >= numRows {
				return fmt.Errorf("row id %d out of range [0,%d)", id, numRows)
			}
			if id <= prev {
				return fmt.Errorf("%s %d row ids not ascending (%d after %d)", unit, u, id, prev)
			}
			if seen[id] {
				return fmt.Errorf("row id %d appears twice", id)
			}
			seen[id] = true
			prev = id
		}
	}
	prev := int32(-1)
	for _, id := range extra {
		if id < 0 || int(id) >= numRows {
			return fmt.Errorf("extra row id %d out of range [0,%d)", id, numRows)
		}
		if id <= prev {
			return fmt.Errorf("extra row ids not ascending (%d after %d)", id, prev)
		}
		if seen[id] {
			return fmt.Errorf("row id %d appears twice", id)
		}
		seen[id] = true
		prev = id
	}
	return nil
}

// treeFromSnapshot validates one R-tree index snapshot and converts it
// to a treeIndex. Structural invariants — everything the iterative
// descents and bulk-emit slicing index by — are verified; semantic
// values (MBR extents, zone-map contents, occupancy statistics) are
// trusted exactly as the grid's are.
func treeFromSnapshot(is TreeIndexSnapshot, ncols, tableRows int) (*treeIndex, error) {
	if is.XCol < 0 || is.XCol >= ncols || is.YCol < 0 || is.YCol >= ncols {
		return nil, fmt.Errorf("column pair (%d,%d) out of range for %d columns", is.XCol, is.YCol, ncols)
	}
	if is.NumRows < 0 || is.NumRows > tableRows {
		return nil, fmt.Errorf("covers %d rows of a %d-row table", is.NumRows, tableRows)
	}
	ix := &treeIndex{
		gridGeom: gridGeom{
			xi: is.XCol, yi: is.YCol,
			bounds: is.Bounds,
			nx:     is.NX, ny: is.NY,
			cellW: is.CellW, cellH: is.CellH,
			n: is.NumRows,
		},
		extra: is.Extra,
		zmin:  is.ZMin, zmax: is.ZMax, znan: is.ZNaN,
		nzmin: is.NZMin, nzmax: is.NZMax, nznan: is.NZNaN,
		occP99: is.OccP99, occSkew: is.Skew,
	}
	ix.delta = newDeltaIndex(&ix.gridGeom, ncols)
	if is.NumRows == 0 {
		// An empty index has no payload at all (buildTreeIndex returns
		// before packing anything); anything here is corruption.
		if is.NX != 0 || is.NY != 0 || len(is.RowID) != 0 || len(is.LeafOff) != 0 ||
			len(is.LeafMBR) != 0 || len(is.Extra) != 0 || len(is.NodeMBR) != 0 ||
			len(is.ZMin) != 0 || len(is.ZMax) != 0 || len(is.ZNaN) != 0 ||
			len(is.NZMin) != 0 || len(is.NZMax) != 0 || len(is.NZNaN) != 0 {
			return nil, errors.New("empty index carries tree data")
		}
		return ix, nil
	}
	// Delta grid geometry: same admission rules as the grid backend's.
	if is.NX < 1 || is.NY < 1 || is.NX > maxSnapshotGridDim || is.NY > maxSnapshotGridDim {
		return nil, fmt.Errorf("delta grid %dx%d out of range [1,%d]", is.NX, is.NY, maxSnapshotGridDim)
	}
	if !(is.CellW > 0) || !(is.CellH > 0) || math.IsInf(is.CellW, 0) || math.IsInf(is.CellH, 0) {
		return nil, fmt.Errorf("cell extent %gx%g is not positive finite", is.CellW, is.CellH)
	}
	if !isFinite(is.Bounds.MinX) || !isFinite(is.Bounds.MinY) ||
		!isFinite(is.Bounds.MaxX) || !isFinite(is.Bounds.MaxY) || is.Bounds.IsEmpty() {
		return nil, fmt.Errorf("bounds %v are not a finite non-empty rectangle", is.Bounds)
	}
	binned := len(is.RowID)
	if binned+len(is.Extra) != is.NumRows {
		return nil, fmt.Errorf("%d packed + %d extra rows for a %d-row index",
			binned, len(is.Extra), is.NumRows)
	}
	if binned == 0 {
		return nil, errors.New("index with no packed rows should not carry a tree")
	}
	// The packed layout: the parallel node arrays must agree and every
	// rectangle be a whole quad; strtree's Validate then checks the
	// structure every descent and run slice indexes by.
	numNodes := len(is.NodeLo)
	if len(is.NodeHi) != numNodes || len(is.NodeLeafLo) != numNodes ||
		len(is.NodeLeafHi) != numNodes || len(is.NodeLeafKids) != numNodes {
		return nil, fmt.Errorf("node arrays sized %d/%d/%d/%d for %d nodes",
			len(is.NodeHi), len(is.NodeLeafLo), len(is.NodeLeafHi), len(is.NodeLeafKids), numNodes)
	}
	if len(is.LeafMBR)%4 != 0 || len(is.NodeMBR) != 4*numNodes {
		return nil, fmt.Errorf("%d leaf and %d node MBR scalars for %d nodes",
			len(is.LeafMBR), len(is.NodeMBR), numNodes)
	}
	ix.Layout = strtree.Layout{
		Ord:     is.RowID,
		LeafOff: is.LeafOff,
		LeafMBR: unflattenRects(is.LeafMBR),
		Nodes:   make([]strtree.Node, numNodes),
	}
	for ni, mbr := range unflattenRects(is.NodeMBR) {
		ix.Nodes[ni] = strtree.Node{
			MBR: mbr,
			Lo:  is.NodeLo[ni], Hi: is.NodeHi[ni],
			LeafLo: is.NodeLeafLo[ni], LeafHi: is.NodeLeafHi[ni],
			LeafKids: is.NodeLeafKids[ni],
		}
	}
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	if err := checkRowRuns("leaf", is.LeafOff, is.RowID, is.Extra, is.NumRows); err != nil {
		return nil, err
	}
	numLeaves := len(ix.LeafMBR)
	if len(is.ZMin) != ncols*numLeaves || len(is.ZMax) != ncols*numLeaves || len(is.ZNaN) != ncols*numLeaves {
		return nil, fmt.Errorf("leaf zone maps sized %d/%d/%d for %d columns x %d leaves",
			len(is.ZMin), len(is.ZMax), len(is.ZNaN), ncols, numLeaves)
	}
	if len(is.NZMin) != ncols*numNodes || len(is.NZMax) != ncols*numNodes || len(is.NZNaN) != ncols*numNodes {
		return nil, fmt.Errorf("node zone maps sized %d/%d/%d for %d columns x %d nodes",
			len(is.NZMin), len(is.NZMax), len(is.NZNaN), ncols, numNodes)
	}
	return ix, nil
}

// SnapshotCatalog captures every table's current generation together
// with the complete sample lineage in one critical section, so a save
// concurrent with publishes can never observe a torn catalog — a
// lineage entry whose sample table is missing from the capture (which
// would make the snapshot unloadable: PublishCatalog rejects dangling
// metas). Tables are returned in name order, metas deduplicated by
// sample table. The per-table generations are immutable, so holding the
// store lock only guards membership, not data copies.
func (s *Store) SnapshotCatalog() ([]TableSnapshot, []SampleMeta) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	tables := make([]TableSnapshot, 0, len(names))
	var metas []SampleMeta
	seen := make(map[string]bool)
	for _, n := range names {
		tables = append(tables, s.tables[n].SnapshotGeneration())
		for _, m := range s.samples[n] {
			if !seen[m.Table] {
				seen[m.Table] = true
				metas = append(metas, m)
			}
		}
	}
	return tables, metas
}

// PublishCatalog atomically installs a set of fully materialized tables
// together with the sample lineage connecting them — the snapshot
// loader's landing step. Validation happens before any mutation, and
// the install itself cannot fail, so a bad batch changes nothing and a
// good batch becomes visible in one critical section: concurrent
// readers observe either the old catalog or the complete new one, never
// a partial load. Tables already in the store are replaced by
// same-named batch tables (dropping their stale sample registrations).
func (s *Store) PublishCatalog(tables []*Table, metas []SampleMeta) error {
	byName := make(map[string]*Table, len(tables))
	for _, t := range tables {
		if t == nil {
			return errors.New("store: publish catalog: nil table")
		}
		if _, dup := byName[t.name]; dup {
			return fmt.Errorf("store: publish catalog: duplicate table %q", t.name)
		}
		byName[t.name] = t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range metas {
		if _, ok := byName[m.Table]; !ok {
			return fmt.Errorf("store: publish catalog: sample %q is not in the batch", m.Table)
		}
		if _, ok := byName[m.Source]; !ok {
			if _, ok := s.tables[m.Source]; !ok {
				return fmt.Errorf("store: publish catalog: sample %q: source table %q: %w",
					m.Table, m.Source, ErrNotFound)
			}
		}
		if m.Size <= 0 {
			return fmt.Errorf("store: publish catalog: sample %q has non-positive size %d", m.Table, m.Size)
		}
	}
	for _, t := range tables {
		if existing, ok := s.tables[t.name]; ok && existing == t {
			return fmt.Errorf("store: publish catalog: table %q is already registered", t.name)
		}
	}
	// Point of no return: everything below succeeds unconditionally.
	for _, t := range tables {
		s.dropLocked(t.name)
		s.tables[t.name] = t
	}
	for _, m := range metas {
		s.samples[m.Source] = append(s.samples[m.Source], m)
	}
	for src := range s.samples {
		sort.Slice(s.samples[src], func(a, b int) bool {
			return s.samples[src][a].Size < s.samples[src][b].Size
		})
	}
	return nil
}
