package store

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// Backend selection: every index-build point (BulkLoad, IndexOn,
// Compact) routes through buildSpatialIndex, which picks the concrete
// spatialIndex implementation per table. The uniform CSR grid is ideal
// for dense uniform scatter — O(1) cell addressing, contiguous runs,
// trivially parallel probes — but degrades badly under skew: when most
// rows land in a few cells, a small viewport still sweeps those giant
// cells row by row. The packed STR R-tree (treeindex.go) adapts its leaf
// extents to the data instead, so a clustered table probes in
// O(result + log n) regardless of how the mass is distributed.
//
// The planner's evidence is the grid-cell occupancy histogram measured
// at build time: occSkew — the ratio of the row-weighted 99th-percentile
// cell population to the mean (see occFromCounts) — is ~1 for uniform
// scatter and grows without bound as mass concentrates. Above
// treeSkewThreshold the grid's worst-case cells dominate probe cost and
// the tree wins; below it the grid's cheaper addressing does.
// SetIndexBackend overrides the choice per table (the vasserve
// -index-backend flag sets it fleet-wide).

// Backend name strings, as exported through IndexStats and /metrics.
const (
	BackendAuto  = "auto"
	BackendGrid  = "grid"
	BackendRTree = "rtree"
)

// Internal backend-mode codes held in Table.backendMode.
const (
	backendAuto int32 = iota
	backendGrid
	backendRTree
)

// treeSkewThreshold is the occupancy skew (p99 cell population over
// mean) above which auto mode picks the R-tree backend. At the 64
// rows/cell grid target, 8× means the busiest percentile of cells holds
// hundreds of rows each — a viewport clipping one of them examines more
// rows than an entire uniform probe would.
const treeSkewThreshold = 8.0

// SetIndexBackend sets the table's index backend policy: "auto" (the
// default — choose per build from the occupancy statistics), "grid", or
// "rtree". The policy applies to subsequent index builds (BulkLoad,
// IndexOn, Compact); call IndexOn again to rebuild an existing index
// under the new policy.
func (t *Table) SetIndexBackend(mode string) error {
	m, err := parseBackendMode(mode)
	if err != nil {
		return err
	}
	t.backendMode.Store(m)
	return nil
}

func parseBackendMode(mode string) (int32, error) {
	switch mode {
	case BackendAuto, "":
		return backendAuto, nil
	case BackendGrid:
		return backendGrid, nil
	case BackendRTree:
		return backendRTree, nil
	}
	return 0, fmt.Errorf("store: unknown index backend %q (want auto, grid, or rtree)", mode)
}

// backendSatisfies reports whether an existing index's backend complies
// with the table's policy — the IndexOn fast path may only skip a
// rebuild when it does.
func backendSatisfies(mode int32, backend string) bool {
	switch mode {
	case backendGrid:
		return backend == BackendGrid
	case backendRTree:
		return backend == BackendRTree
	}
	return true
}

// buildSpatialIndex builds the backend the policy selects over the
// (xi, yi) pair. In auto mode the choice comes from a grid-occupancy
// counting pass over the data. It returns nil (a true nil interface,
// never a typed-nil pointer) when the pair is unindexable — too many
// rows for int32 ids, or nothing finite to bin.
func buildSpatialIndex(xi, yi int, cols [][]float64, n int, mode int32) spatialIndex {
	m := mode
	if m == backendAuto {
		m = backendGrid
		if _, skew, ok := occupancyStats(xi, yi, cols, n); ok && skew >= treeSkewThreshold {
			m = backendRTree
		}
	}
	if m == backendRTree {
		if tix := buildTreeIndex(xi, yi, cols, n); tix != nil {
			return tix
		}
		return nil
	}
	if ix := buildRectIndex(xi, yi, cols, n); ix != nil {
		return ix
	}
	return nil
}

// occupancyStats measures the grid-cell occupancy distribution the
// uniform grid would have over the (xi, yi) pair: one bounds pass, one
// counting pass over the same grid sizing buildRectIndex uses. ok is
// false when there is nothing finite to measure.
func occupancyStats(xi, yi int, cols [][]float64, n int) (p99, skew float64, ok bool) {
	if n == 0 || n > math.MaxInt32 {
		return 0, 0, false
	}
	xs, ys := cols[xi], cols[yi]
	g := gridGeom{bounds: geom.EmptyRect()}
	binned := 0
	for i := 0; i < n; i++ {
		x, y := xs[i], ys[i]
		if !isFinite(x) || !isFinite(y) {
			continue
		}
		g.bounds = g.bounds.UnionPoint(geom.Pt(x, y))
		binned++
	}
	if binned == 0 || g.bounds.IsEmpty() {
		return 0, 0, false
	}
	g.sizeGrid(n)
	counts := make([]int32, g.nx*g.ny)
	for i := 0; i < n; i++ {
		x, y := xs[i], ys[i]
		if !isFinite(x) || !isFinite(y) {
			continue
		}
		counts[g.cellIndex(x, y)]++
	}
	p99, skew = occFromCounts(counts, binned)
	return p99, skew, true
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
