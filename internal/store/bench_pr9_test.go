package store

// Skew and kNN microbenchmarks for the index backends: the same
// clustered 1M-row table served by the grid and the STR R-tree under a
// 1% filtered viewport that clips the dense region — the shape the grid
// degrades on, because its fixed cells force a row-by-row sweep of the
// cluster — plus kNN latency through the tree's best-first descent vs
// the brute-force sweep grid-backed tables fall back to. `make
// bench-smoke` runs them once each.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// benchSkewTable loads 1M rows where 90% form a tight Gaussian cluster
// (sigma 1 around (500, 500), a handful of grid cells — well under 1%
// of the ~15k cells the grid sizes itself to) and 10% scatter uniformly
// over [0, 1000)^2, plus a uniform filter column m in [0, 100).
func benchSkewTable(b *testing.B, backend string) *Table {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	n := benchRows
	xs := make([]float64, n)
	ys := make([]float64, n)
	ms := make([]float64, n)
	for i := range xs {
		if i%10 != 0 {
			xs[i] = 500 + rng.NormFloat64()
			ys[i] = 500 + rng.NormFloat64()
		} else {
			xs[i] = rng.Float64() * 1000
			ys[i] = rng.Float64() * 1000
		}
		ms[i] = rng.Float64() * 100
	}
	tb, err := NewTable("bench", "x", "y", "m")
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.SetIndexBackend(backend); err != nil {
		b.Fatal(err)
	}
	if err := tb.BulkLoad(xs, ys, ms); err != nil {
		b.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		b.Fatal(err)
	}
	if got := tb.snapshot().indexFor(0, 1).backend(); got != backend {
		b.Fatalf("backend = %q, want %q", got, backend)
	}
	return tb
}

// benchSkewViewport is a 1% viewport (10% per axis) whose corner clips
// the dense cluster's grid cell: the grid must sweep the cluster's
// hundreds of thousands of co-celled rows to answer it, while the
// tree's data-adaptive leaves only visit rows near the boundary.
var benchSkewViewport = geom.Rect{MinX: 503, MinY: 503, MaxX: 603, MaxY: 603}

// benchSkewPreds pushes a 50% filter on m down into the same probe.
var benchSkewPreds = []Pred{{Column: "m", Min: 0, Max: 50}}

func benchSkewedViewport(b *testing.B, backend string) {
	tb := benchSkewTable(b, backend)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{benchSkewViewport}, benchSkewPreds)
		if err != nil {
			b.Fatal(err)
		}
		if rows.Len() == 0 {
			b.Fatal("empty viewport result")
		}
	}
}

func BenchmarkSkewedViewportGrid(b *testing.B)  { benchSkewedViewport(b, BackendGrid) }
func BenchmarkSkewedViewportRTree(b *testing.B) { benchSkewedViewport(b, BackendRTree) }

func benchNearest(b *testing.B, backend string) {
	tb := benchSkewTable(b, backend)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, _, err := tb.View().Nearest(context.Background(), "x", "y", 500.3, 500.3, 10, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(ns) != 10 {
			b.Fatalf("got %d neighbors", len(ns))
		}
	}
}

// BenchmarkNearestRTree answers k=10 through the tree's best-first
// branch-and-bound descent; BenchmarkNearestGridFallback is the same
// query on the grid backend, which has no kNN path and sweeps every
// row.
func BenchmarkNearestRTree(b *testing.B)        { benchNearest(b, BackendRTree) }
func BenchmarkNearestGridFallback(b *testing.B) { benchNearest(b, BackendGrid) }
