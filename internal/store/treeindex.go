package store

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/strtree"
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
// The packed layout — STR order, leaves, MBRs, node hierarchy — and the
// best-first kNN descent are internal/strtree's; this type adds what is
// the store's own. It mirrors the grid's CSR idiom: Ord packs every
// finite row in leaf order, re-sorted ascending within each leaf so the
// selection-vector kernels see the same shape as a grid cell run, and
// per-leaf zone maps prune or bulk-pass residual predicates exactly like
// per-cell ones. On top of that the node hierarchy adds what the grid
// cannot offer: per-NODE MBRs and zone maps, so a whole subtree — a
// contiguous Ord run, thanks to the leaf-ordered packing — can be pruned
// or bulk-emitted in one step, and kNN (nearest.go) has mindist bounds to
// order by.
//
// The embedded grid geometry is NOT probe geometry: it is the binning
// the occupancy statistics were measured over, kept for the snapshot.
type treeIndex struct {
	indexBase
	// Layout is the packed tree over the finite rows: leaf l's run is
	// Ord[LeafOff[l]:LeafOff[l+1]], ascending within the run.
	strtree.Layout
	// zones holds the per-(column, leaf) zone maps; nodeZones the
	// per-(column, node) maps, folded bottom-up from the leaf maps, which
	// let one consult settle an entire subtree.
	zones, nodeZones zoneMaps
}

// treeLeafSize is the tree's leaf capacity: 64 rows matches the grid's
// per-cell target, so zone maps have comparable granularity under either
// backend and a leaf run clears kernelMinRows.
const treeLeafSize = 64

// buildTreeIndex packs the rows binIndex binned into the STR R-tree,
// with zone maps over every column.
func buildTreeIndex(b indexBase, cols [][]float64, cellOf []int32) *treeIndex {
	ix := &treeIndex{indexBase: b}
	if ix.n == 0 {
		return ix
	}
	ord := make([]int32, 0, ix.n-len(ix.extra))
	for i, c := range cellOf {
		if c >= 0 {
			ord = append(ord, int32(i))
		}
	}
	ix.Layout = strtree.Pack(cols[ix.xi], cols[ix.yi], ord, treeLeafSize)
	// Within a leaf the run is re-sorted ascending by row id — leaf
	// membership is what carries the spatial locality, and ascending runs
	// give the kernels (and the snapshot validator) the same shape as grid
	// cell runs.
	numLeaves := len(ix.LeafMBR)
	ix.zones = newZoneMaps(len(cols), numLeaves)
	for l := 0; l < numLeaves; l++ {
		run := ix.Ord[ix.LeafOff[l]:ix.LeafOff[l+1]]
		slices.Sort(run)
		for _, id := range run {
			ix.zones.add(cols, l, int(id))
		}
	}
	// Children sit at lower indices than their parent, so one ascending
	// pass sees every child before its parent.
	ix.nodeZones = newZoneMaps(len(cols), len(ix.Nodes))
	for ni, nd := range ix.Nodes {
		src := &ix.nodeZones
		if nd.LeafKids {
			src = &ix.zones
		}
		for c := int(nd.Lo); c < int(nd.Hi); c++ {
			ix.nodeZones.fold(ni, src, c)
		}
	}
	return ix
}

func (ix *treeIndex) backend() string { return BackendRTree }

// cells reports the pruning granularity — the leaf count — for the
// /metrics cell gauge.
func (ix *treeIndex) cells() int { return len(ix.LeafMBR) }

// collect walks the packed hierarchy iteratively (children sit at
// strictly lower indices than their parent). At every node the MBR and
// the node zone maps can prune the whole subtree or — when p.r contains
// the MBR and every predicate zone-settles as all-pass — emit its entire
// contiguous Ord run. Leaves that survive go through p.run like grid
// cells. Leaf and node MBRs are exact (computed from the member
// coordinates, unlike the grid's nominal cell rectangles), so
// r.ContainsRect(mbr) directly proves every member row passes the
// rectangle test — no strict-interior margin is needed.
func (ix *treeIndex) collect(p *probe) {
	p.ids = make([]int, 0, ix.bound(p.r))
	stack := make([]int32, 0, 64)
	stack = append(stack, int32(len(ix.Nodes)-1))
	for len(stack) > 0 {
		// One counter-gated poll per popped node.
		if p.cn.stop() {
			return
		}
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &ix.Nodes[ni]
		if !nd.MBR.Intersects(p.r) {
			continue
		}
		// Touched-then-pruned or touched-then-bulk, mirroring the grid's
		// accounting where every candidate cell counts as touched.
		leaves := int(nd.LeafHi - nd.LeafLo)
		if p.zoneCheck(&ix.nodeZones, int(ni)) {
			p.st.CellsTouched += leaves
			p.st.CellsPruned += leaves
			continue
		}
		if len(p.residual) == 0 && p.r.ContainsRect(nd.MBR) {
			p.st.CellsTouched += leaves
			p.st.CellsBulk += leaves
			p.ids = appendSel(p.ids, ix.Ord[ix.LeafOff[nd.LeafLo]:ix.LeafOff[nd.LeafHi]])
			continue
		}
		for c := nd.Lo; c < nd.Hi; c++ {
			if !nd.LeafKids {
				stack = append(stack, c)
			} else if mbr := ix.LeafMBR[c]; mbr.Intersects(p.r) {
				p.st.CellsTouched++
				p.run(ix.Ord[ix.LeafOff[c]:ix.LeafOff[c+1]], &ix.zones, int(c), !p.r.ContainsRect(mbr))
			}
		}
	}
}

// bound upper-bounds how many rows collect can emit for r — the rows of
// every leaf r intersects — so the ids buffer is allocated once.
func (ix *treeIndex) bound(r geom.Rect) int {
	n := 0
	stack := make([]int32, 0, 64)
	stack = append(stack, int32(len(ix.Nodes)-1))
	for len(stack) > 0 {
		nd := &ix.Nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		switch {
		case !nd.MBR.Intersects(r):
		case r.ContainsRect(nd.MBR):
			n += int(ix.LeafOff[nd.LeafHi] - ix.LeafOff[nd.LeafLo])
		case nd.LeafKids:
			for c := nd.Lo; c < nd.Hi; c++ {
				if ix.LeafMBR[c].Intersects(r) {
					n += int(ix.LeafOff[c+1] - ix.LeafOff[c])
				}
			}
		default:
			for c := nd.Lo; c < nd.Hi; c++ {
				stack = append(stack, c)
			}
		}
	}
	return n
}
