package store

import (
	"slices"
	"sync/atomic"
)

// Backend selection: every index-build point (BulkLoad, IndexOn,
// Compact) routes through buildSpatialIndex, which picks the concrete
// spatialIndex implementation per table. The uniform CSR grid is ideal
// for dense uniform scatter — O(1) cell addressing, contiguous runs —
// but degrades badly under skew: when most rows land in a few cells, a
// small viewport still sweeps those giant cells row by row. The packed
// STR R-tree (treeindex.go) adapts its leaf extents to the data
// instead, so a clustered table probes in O(result + log n) regardless
// of how the mass is distributed.
//
// The evidence is the grid-cell occupancy histogram measured at build
// time: occSkew — the ratio of the row-weighted 99th-percentile cell
// population to the mean (see occFromCounts) — is ~1 for uniform
// scatter and grows without bound as mass concentrates. Above
// treeSkewThreshold the grid's worst-case cells dominate probe cost and
// the tree wins; below it the grid's cheaper addressing does. The data
// alone decides: there is no per-table or fleet-wide override.

// Backend name strings, as exported through IndexStats and /metrics.
const (
	BackendGrid  = "grid"
	BackendRTree = "rtree"
)

// treeSkewThreshold is the occupancy skew (p99 cell population over
// mean) above which buildSpatialIndex picks the R-tree backend. At the
// 64 rows/cell grid target, 8× means the busiest percentile of cells
// holds hundreds of rows each — a viewport clipping one of them examines
// more rows than an entire uniform probe would.
const treeSkewThreshold = 8.0

// forcedBackend is a test seam on the forceScalarKernels pattern: ""
// (the only value outside tests) lets the occupancy statistics choose,
// while BackendGrid or BackendRTree pins every later index build in the
// process to that backend, so the store's tests can run both over
// identical data. It is atomic because tests flip it while background
// compactions build indexes.
var forcedBackend atomic.Pointer[string]

// buildSpatialIndex builds the backend the occupancy statistics of
// binIndex's grid binning select over the (xi, yi) pair. It returns nil
// (a true nil interface, never a typed-nil pointer) when the pair is
// unindexable — too many rows for int32 ids, or nothing finite to bin.
func buildSpatialIndex(xi, yi int, cols [][]float64, n int) spatialIndex {
	b, cellOf, counts, ok := binIndex(xi, yi, cols, n)
	if !ok {
		return nil
	}
	tree := b.occSkew >= treeSkewThreshold
	if f := forcedBackend.Load(); f != nil {
		tree = *f == BackendRTree
	}
	if tree {
		return buildTreeIndex(b, cols, cellOf)
	}
	return buildRectIndex(b, cols, cellOf, counts)
}

// occFromCounts reduces a per-cell population histogram to the planner's
// two numbers: the ROW-weighted 99th-percentile occupancy — the
// population of the cell the 99th-percentile row lives in, walking
// cells in ascending-population order — and its ratio to the mean
// population. Row weighting is what makes the statistic sensitive to
// concentration: a cell-weighted percentile never sees one ultra-hot
// cell among hundreds of sparse ones (99% of CELLS stay sparse), while
// by rows that cell is where nearly every row lives. The grid sizes
// itself at ~64 rows/cell, so the mean is ~64 by construction and skew
// reads as "how many grid cells' worth of rows share the dense cells":
// ~1 for uniform scatter, hundreds under heavy clustering.
func occFromCounts(counts []int32, binned int) (p99, skew float64) {
	if len(counts) == 0 || binned == 0 {
		return 0, 0
	}
	sorted := make([]int32, len(counts))
	copy(sorted, counts)
	slices.Sort(sorted)
	target := (99*binned + 99) / 100 // rank of the 99th-percentile row
	cum := 0
	for _, c := range sorted {
		cum += int(c)
		if cum >= target {
			p99 = float64(c)
			break
		}
	}
	mean := float64(binned) / float64(len(counts))
	if mean > 0 {
		skew = p99 / mean
	}
	return p99, skew
}
