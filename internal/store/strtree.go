package store

import (
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// treeIndex is the packed STR R-tree backend: an immutable bulk-loaded
// R-tree (Sort-Tile-Recursive, Leutenegger 1997) over one (x, y) column
// pair, filling the same spatialIndex contract as the CSR grid. Where
// the grid carves space into uniform cells, the tree carves the DATA
// into equal-population leaves whose bounding rectangles adapt to the
// distribution — under heavy skew a viewport touches O(result/leafSize)
// leaves instead of sweeping the handful of giant grid cells the mass
// collapsed into.
//
// Layout mirrors the grid's CSR idiom: rowID packs every finite row in
// leaf order (ascending within each leaf, so the selection-vector
// kernels see the same shape as a grid cell run), leafOff delimits leaf
// runs, and per-leaf zone maps prune or bulk-pass residual predicates
// exactly like per-cell ones. On top of that the packed node hierarchy
// adds what the grid cannot offer: per-NODE MBRs and zone maps, so a
// whole subtree — a contiguous rowID run, thanks to the leaf-ordered
// packing — can be pruned or bulk-emitted in one step, and best-first
// kNN descent (nearest.go) has mindist bounds to order by.
//
// The embedded gridGeom is NOT probe geometry — it exists so the delta
// index (delta.go) buckets appended rows identically under either
// backend, keeping ingest behavior backend-independent.
type treeIndex struct {
	gridGeom
	// rowID packs the finite rows in leaf order; leaf l's run is
	// rowID[leafOff[l]:leafOff[l+1]], ascending within the run.
	rowID   []int32
	leafOff []int32
	leafMBR []geom.Rect
	// nodes is the packed hierarchy, bottom-up with the root LAST; a
	// node's children (lower nodes, or leaves at level 0) sit at
	// strictly lower indices, so iterative descent terminates.
	nodes []treeNode
	// extra holds rows (ascending) with a non-finite coordinate,
	// filtered per probe exactly like the grid's extras.
	extra []int32

	// occP99 and occSkew are the build-time grid-occupancy statistics
	// (measured on the delta grid) the backend planner consulted.
	occP99, occSkew float64

	// Per-(column, leaf) zone maps, flat as [col·numLeaves + leaf], with
	// the grid's exact semantics (znan marks a NaN present — unprunable
	// but still bulk-passable).
	zmin, zmax []float64
	znan       []bool
	// Per-(column, node) zone maps, flat as [col·numNodes + node],
	// aggregated bottom-up from the leaf maps: they let one consult
	// settle an entire subtree.
	nzmin, nzmax []float64
	nznan        []bool

	delta *deltaIndex
}

// treeNode is one packed internal node. Children are nodes[lo:hi], or
// leaves [lo,hi) when leafKids. llo/lhi give the contiguous leaf span
// the subtree covers: its rows are exactly
// rowID[leafOff[llo]:leafOff[lhi]] — one run, bulk-emittable.
type treeNode struct {
	mbr      geom.Rect
	lo, hi   int32
	llo, lhi int32
	leafKids bool
}

const (
	// treeLeafSize is the tree's leaf capacity: 64 rows matches the
	// grid's per-cell target, so zone maps have comparable granularity
	// under either backend and a leaf run clears kernelMinRows.
	treeLeafSize = 64
	// treeFanout is the packed internal-node fanout.
	treeFanout = 16
)

// buildTreeIndex builds the STR R-tree backend over the n-row (xi, yi)
// pair of cols, with zone maps over every column. Nil conditions match
// buildRectIndex: too many rows for int32 ids, or nothing finite to
// pack. n == 0 yields a valid empty index so later appends take the
// tail path.
func buildTreeIndex(xi, yi int, cols [][]float64, n int) *treeIndex {
	if n > math.MaxInt32 {
		return nil
	}
	xs, ys := cols[xi], cols[yi]
	ix := &treeIndex{gridGeom: gridGeom{xi: xi, yi: yi, n: n, bounds: geom.EmptyRect()}}
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
	if len(ix.extra) == n || ix.bounds.IsEmpty() {
		return nil
	}
	// Delta grid geometry + occupancy statistics: the same uniform
	// binning the grid backend would use, so appended rows bucket
	// identically and the planner's skew evidence is backend-neutral.
	ix.sizeGrid(n)
	binned := n - len(ix.extra)
	counts := make([]int32, ix.nx*ix.ny)
	for i := 0; i < n; i++ {
		x, y := xs[i], ys[i]
		if !isFinite(x) || !isFinite(y) {
			continue
		}
		counts[ix.cellIndex(x, y)]++
	}
	ix.occP99, ix.occSkew = occFromCounts(counts, binned)

	// STR packing: sort finite rows by x (ties y, then id for
	// determinism), slice into ceil(sqrt(numLeaves)) vertical strips of
	// whole leaves, sort each strip by y (ties x, then id); chunking the
	// result into runs of treeLeafSize yields spatially tight leaves for
	// any distribution.
	ord := make([]int32, 0, binned)
	for i := 0; i < n; i++ {
		if isFinite(xs[i]) && isFinite(ys[i]) {
			ord = append(ord, int32(i))
		}
	}
	sort.Slice(ord, func(a, b int) bool {
		ia, ib := ord[a], ord[b]
		if xs[ia] != xs[ib] {
			return xs[ia] < xs[ib]
		}
		if ys[ia] != ys[ib] {
			return ys[ia] < ys[ib]
		}
		return ia < ib
	})
	numLeaves := (binned + treeLeafSize - 1) / treeLeafSize
	strips := int(math.Ceil(math.Sqrt(float64(numLeaves))))
	if strips < 1 {
		strips = 1
	}
	stripRows := ((numLeaves + strips - 1) / strips) * treeLeafSize
	for lo := 0; lo < binned; lo += stripRows {
		hi := min(lo+stripRows, binned)
		strip := ord[lo:hi]
		sort.Slice(strip, func(a, b int) bool {
			ia, ib := strip[a], strip[b]
			if ys[ia] != ys[ib] {
				return ys[ia] < ys[ib]
			}
			if xs[ia] != xs[ib] {
				return xs[ia] < xs[ib]
			}
			return ia < ib
		})
	}
	// Chunk into leaves. Within a leaf the run is re-sorted ascending by
	// row id — leaf membership is what carries the spatial locality, and
	// ascending runs give the kernels (and the snapshot validator) the
	// same shape as grid cell runs.
	ix.rowID = ord
	ix.leafOff = make([]int32, numLeaves+1)
	ix.leafMBR = make([]geom.Rect, numLeaves)
	for l := 0; l < numLeaves; l++ {
		lo := l * treeLeafSize
		hi := min(lo+treeLeafSize, binned)
		ix.leafOff[l] = int32(lo)
		run := ix.rowID[lo:hi]
		slices.Sort(run)
		mbr := geom.EmptyRect()
		for _, id := range run {
			mbr = mbr.UnionPoint(geom.Pt(xs[id], ys[id]))
		}
		ix.leafMBR[l] = mbr
	}
	ix.leafOff[numLeaves] = int32(binned)

	// Per-leaf zone maps over every column of the generation.
	ncols := len(cols)
	ix.zmin = make([]float64, ncols*numLeaves)
	ix.zmax = make([]float64, ncols*numLeaves)
	ix.znan = make([]bool, ncols*numLeaves)
	for zi := range ix.zmin {
		ix.zmin[zi] = math.Inf(1)
		ix.zmax[zi] = math.Inf(-1)
	}
	for ci, col := range cols {
		zbase := ci * numLeaves
		for l := 0; l < numLeaves; l++ {
			zi := zbase + l
			for _, id := range ix.rowID[ix.leafOff[l]:ix.leafOff[l+1]] {
				v := col[id]
				if math.IsNaN(v) {
					ix.znan[zi] = true
					continue
				}
				if v < ix.zmin[zi] {
					ix.zmin[zi] = v
				}
				if v > ix.zmax[zi] {
					ix.zmax[zi] = v
				}
			}
		}
	}

	ix.packNodes(ncols)
	return ix
}

// packNodes builds the internal hierarchy bottom-up — level 0 groups
// runs of treeFanout leaves, each later level groups the previous
// level's nodes, until one root remains (stored last) — and aggregates
// the per-node zone maps from the level below in the same passes.
func (ix *treeIndex) packNodes(ncols int) {
	numLeaves := len(ix.leafMBR)
	for l := 0; l < numLeaves; l += treeFanout {
		hi := min(l+treeFanout, numLeaves)
		mbr := geom.EmptyRect()
		for _, m := range ix.leafMBR[l:hi] {
			mbr = mbr.Union(m)
		}
		ix.nodes = append(ix.nodes, treeNode{
			mbr: mbr, lo: int32(l), hi: int32(hi),
			llo: int32(l), lhi: int32(hi), leafKids: true,
		})
	}
	levelLo := 0
	for len(ix.nodes)-levelLo > 1 {
		levelHi := len(ix.nodes)
		for l := levelLo; l < levelHi; l += treeFanout {
			hi := min(l+treeFanout, levelHi)
			mbr := geom.EmptyRect()
			for _, c := range ix.nodes[l:hi] {
				mbr = mbr.Union(c.mbr)
			}
			ix.nodes = append(ix.nodes, treeNode{
				mbr: mbr, lo: int32(l), hi: int32(hi),
				llo: ix.nodes[l].llo, lhi: ix.nodes[hi-1].lhi,
			})
		}
		levelLo = levelHi
	}
	numNodes := len(ix.nodes)
	ix.nzmin = make([]float64, ncols*numNodes)
	ix.nzmax = make([]float64, ncols*numNodes)
	ix.nznan = make([]bool, ncols*numNodes)
	for ci := 0; ci < ncols; ci++ {
		nbase := ci * numNodes
		lbase := ci * numLeaves
		for ni := 0; ni < numNodes; ni++ {
			nd := &ix.nodes[ni]
			lo, hi := int(nd.lo), int(nd.hi)
			zmin, zmax, znan := math.Inf(1), math.Inf(-1), false
			for c := lo; c < hi; c++ {
				var cmin, cmax float64
				var cnan bool
				if nd.leafKids {
					cmin, cmax, cnan = ix.zmin[lbase+c], ix.zmax[lbase+c], ix.znan[lbase+c]
				} else {
					cmin, cmax, cnan = ix.nzmin[nbase+c], ix.nzmax[nbase+c], ix.nznan[nbase+c]
				}
				if cmin < zmin {
					zmin = cmin
				}
				if cmax > zmax {
					zmax = cmax
				}
				znan = znan || cnan
			}
			ix.nzmin[nbase+ni] = zmin
			ix.nzmax[nbase+ni] = zmax
			ix.nznan[nbase+ni] = znan
		}
	}
}

// ---- spatialIndex contract ----

func (ix *treeIndex) extraCount() int         { return len(ix.extra) }
func (ix *treeIndex) backend() string         { return BackendRTree }
func (ix *treeIndex) occ() (float64, float64) { return ix.occP99, ix.occSkew }
func (ix *treeIndex) deltaIdx() *deltaIndex   { return ix.delta }

// cells reports the pruning granularity — the leaf count — for the
// /metrics cell gauge.
func (ix *treeIndex) cells() int { return len(ix.leafMBR) }

// coversAll matches the grid's fast-path contract: every indexed row is
// trivially inside r. Leaf MBRs are exact bounds of their member
// points, so containment of the root extent is sufficient.
func (ix *treeIndex) coversAll(r geom.Rect) bool {
	return ix.n > 0 && len(ix.extra) == 0 && r.ContainsRect(ix.bounds)
}

// collect returns the sorted ids of indexed rows inside r that satisfy
// every residual predicate — rectIndex.collect's exact contract, served
// by best-effort subtree pruning instead of a cell sweep. Because leaf
// and node MBRs are exact (computed from the member coordinates, unlike
// the grid's nominal cell rectangles), r.ContainsRect(mbr) directly
// proves every member row passes the rectangle test — no strict-interior
// margin is needed.
func (ix *treeIndex) collect(cols [][]float64, r geom.Rect, preds []Pred, pi []int, skip []bool, tally *zoneTally, st *ScanStats, cn *canceler) []int {
	if ix.n == 0 {
		return nil
	}
	var ids []int
	if r.Intersects(ix.bounds) {
		ids = ix.collectTree(cols, r, preds, pi, skip, tally, st, cn)
	}
	// A canceled probe's partial ids are discarded by the caller; skip
	// the extras pass and the sort, which alone can outlast the
	// cancellation bound on a million-row result.
	if cn.cause() != nil {
		return nil
	}
	xs, ys := cols[ix.xi], cols[ix.yi]
	for _, id := range ix.extra {
		st.RowsExamined++
		if inRect(xs[id], ys[id], r) && matchPreds(cols, pi, preds, int(id)) {
			ids = append(ids, int(id))
		}
	}
	slices.Sort(ids)
	return ids
}

// collectTree walks the packed hierarchy iteratively (children sit at
// strictly lower indices than their parent). At every node the MBR and
// the node zone maps can prune the whole subtree or — when r contains
// the MBR and every predicate zone-settles as all-pass — bulk-emit its
// entire contiguous rowID run. Leaves that survive are processed
// exactly like grid cells: zone prune / all-pass per leaf, then the
// selection-vector kernels over the run.
func (ix *treeIndex) collectTree(cols [][]float64, r geom.Rect, preds []Pred, pi []int, skip []bool, tally *zoneTally, st *ScanStats, cn *canceler) []int {
	st.ProbeShards++
	xs, ys := cols[ix.xi], cols[ix.yi]
	numLeaves := len(ix.leafMBR)
	numNodes := len(ix.nodes)
	var ids []int
	residual := make([]Pred, 0, len(preds))
	residualCols := make([]int, 0, len(preds))
	var sel []int32
	stack := make([]int32, 0, 64)
	stack = append(stack, int32(numNodes-1))
	for len(stack) > 0 {
		// One counter-gated poll per popped node; a canceled descent
		// returns partial ids the entry point will discard.
		if cn.stop() {
			return ids
		}
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &ix.nodes[ni]
		if !nd.mbr.Intersects(r) {
			continue
		}
		// Node-level zone consult: one lookup can prune or settle the
		// whole subtree's run.
		pruned := false
		settled := true
		for k := range preds {
			if skip != nil && skip[k] {
				settled = false
				continue
			}
			p := preds[k]
			zi := pi[k]*numNodes + int(ni)
			tally.eval[k]++
			if !ix.nznan[zi] && (ix.nzmax[zi] < p.Min || ix.nzmin[zi] > p.Max) {
				tally.decisive[k]++
				pruned = true
				break
			}
			if ix.nzmin[zi] >= p.Min && ix.nzmax[zi] <= p.Max {
				tally.decisive[k]++
			} else {
				settled = false
			}
		}
		if pruned {
			// Touched-then-pruned, mirroring the grid's accounting where
			// every candidate cell counts as touched.
			st.CellsTouched += int(nd.lhi - nd.llo)
			st.CellsPruned += int(nd.lhi - nd.llo)
			continue
		}
		if settled && r.ContainsRect(nd.mbr) {
			// Whole subtree passes: its rows are one contiguous run.
			lo, hi := ix.leafOff[nd.llo], ix.leafOff[nd.lhi]
			st.CellsTouched += int(nd.lhi - nd.llo)
			st.CellsBulk += int(nd.lhi - nd.llo)
			ids = appendSel(ids, ix.rowID[lo:hi])
			continue
		}
		if !nd.leafKids {
			for c := nd.lo; c < nd.hi; c++ {
				stack = append(stack, c)
			}
			continue
		}
		for c := nd.lo; c < nd.hi; c++ {
			mbr := ix.leafMBR[c]
			if !mbr.Intersects(r) {
				continue
			}
			st.CellsTouched++
			pruned := false
			residual = residual[:0]
			residualCols = residualCols[:0]
			for k := range preds {
				p := preds[k]
				if skip != nil && skip[k] {
					residual = append(residual, p)
					residualCols = append(residualCols, pi[k])
					continue
				}
				zi := pi[k]*numLeaves + int(c)
				tally.eval[k]++
				if !ix.znan[zi] && (ix.zmax[zi] < p.Min || ix.zmin[zi] > p.Max) {
					tally.decisive[k]++
					pruned = true
					break
				}
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
			needRect := !r.ContainsRect(mbr)
			run := ix.rowID[ix.leafOff[c]:ix.leafOff[c+1]]
			if !needRect && len(residual) == 0 {
				st.CellsBulk++
				ids = appendSel(ids, run)
				continue
			}
			if len(run) >= kernelMinRows && !forceScalarKernels {
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
				rc := cols[residualCols[0]]
				pmin, pmax := residual[0].Min, residual[0].Max
				for _, id := range run {
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
			for _, id := range run {
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
