package store

// Serving microbenchmarks for the read path: viewport queries as index
// probes vs the pre-index linear baseline, the linear scan unindexed
// pairs fall back to, and the zero-row-id-allocation full-extent
// projection. They are developer tools (go test -bench); `make
// bench-smoke` keeps them compiling and running, and end-to-end claims
// go through bench/ (bash bench/run.sh).

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/geom"
)

const benchRows = 1_000_000

// benchViewport covers 1% of the data extent (10% per axis).
var benchViewport = geom.Rect{MinX: 450, MinY: 450, MaxX: 550, MaxY: 550}

var benchPreds = []Pred{
	{Column: "x", Min: benchViewport.MinX, Max: benchViewport.MaxX},
	{Column: "y", Min: benchViewport.MinY, Max: benchViewport.MaxY},
}

func benchTable(b *testing.B, n int, indexed bool) *Table {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = rng.Float64() * 1000
	}
	tb, err := NewTable("bench", "x", "y")
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.BulkLoad(xs, ys); err != nil {
		b.Fatal(err)
	}
	if indexed {
		if err := tb.IndexOn("x", "y"); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

// BenchmarkQueryViewportIndexed is the refactored serving hot path: a 1%
// viewport over a 1M-row table answered as a grid-index probe, then
// projected to points from the same view.
func BenchmarkQueryViewportIndexed(b *testing.B) { benchQueryViewport(b, true) }

// BenchmarkQueryViewportLinear is the pre-index baseline: the same
// viewport over an unindexed pair, which ScanRects answers with the
// linear scan over every row, then projected to points.
func BenchmarkQueryViewportLinear(b *testing.B) { benchQueryViewport(b, false) }

func benchQueryViewport(b *testing.B, indexed bool) {
	tb := benchTable(b, benchRows, indexed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := tb.View()
		rows, _, err := v.ScanRects(context.Background(), "x", "y", []geom.Rect{benchViewport}, nil)
		if err != nil {
			b.Fatal(err)
		}
		pts, err := v.Points("x", "y", rows)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("empty viewport result")
		}
	}
}

// BenchmarkExactScan measures Table.Scan: the 1% viewport's two range
// predicates over all 1M rows, one probe.span over [0, n) through the
// batch kernels on the calling goroutine — the same dense-range filter
// an unindexed pair's ScanRects runs.
func BenchmarkExactScan(b *testing.B) {
	tb := benchTable(b, benchRows, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := tb.Scan(benchPreds)
		if err != nil {
			b.Fatal(err)
		}
		if rows.IsEmpty() {
			b.Fatal("empty scan result")
		}
	}
}

// ---- predicate pushdown (ISSUE 3 acceptance) ----

// benchFilteredTable is 1M rows with three attribute columns: m is
// spatially correlated (the realistic dashboard case — magnitude,
// altitude, timestamps of a moving object all correlate with position),
// t is independent noise (the zone maps' worst case), and c is a
// spatially striped category.
func benchFilteredTable(b *testing.B) *Table {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	n := benchRows
	xs := make([]float64, n)
	ys := make([]float64, n)
	ms := make([]float64, n)
	ts := make([]float64, n)
	cs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = rng.Float64() * 1000
		ms[i] = (xs[i]+ys[i])/2 + rng.NormFloat64()*5
		ts[i] = rng.Float64() * 1000
		cs[i] = float64(int(xs[i]/100) % 10)
	}
	tb, err := NewTable("benchf", "x", "y", "m", "t", "c")
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.BulkLoad(xs, ys, ms, ts, cs); err != nil {
		b.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		b.Fatal(err)
	}
	return tb
}

// benchFilterSets are the {0, 1, 3} residual predicate sets of the
// acceptance criterion. The single predicate is the selective one: m is
// centered near 500 inside the viewport, so a band at 520..540 keeps
// only a thin diagonal slice and zone maps can prune the rest.
var benchFilterSets = map[string][]Pred{
	"preds=0": nil,
	"preds=1": {{Column: "m", Min: 520, Max: 540}},
	"preds=3": {
		{Column: "m", Min: 520, Max: 540},
		{Column: "t", Min: 0, Max: 800},
		{Column: "c", Min: 4, Max: 5},
	},
}

// BenchmarkScanRectFiltered is the pushdown serving path: the 1%
// viewport of BenchmarkQueryViewportIndexed with residual predicates
// riding down into the index probe, where per-cell zone maps prune.
// prune_ratio reports pruned/touched cells.
func BenchmarkScanRectFiltered(b *testing.B) {
	tb := benchFilteredTable(b)
	for _, name := range []string{"preds=0", "preds=1", "preds=3"} {
		preds := benchFilterSets[name]
		b.Run(name, func(b *testing.B) {
			var touched, pruned int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, st, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{benchViewport}, preds)
				if err != nil {
					b.Fatal(err)
				}
				if rows.IsEmpty() {
					b.Fatal("empty filtered result")
				}
				touched += st.CellsTouched
				pruned += st.CellsPruned
			}
			if touched > 0 {
				b.ReportMetric(float64(pruned)/float64(touched), "prune_ratio")
			}
		})
	}
	benchResidualShapes(b, benchResidualTable(b))
}

// ---- batch kernels (ISSUE 7 acceptance) ----

// benchResidualTable is the residual-heavy worst case for the zone
// maps and the best case for batch kernels: attribute columns a, c, d
// are uniform noise uncorrelated with position (every cell's zone spans
// nearly the full value range, so zones never prune or settle and every
// predicate is evaluated per row), and positions are skewed — a uniform
// background plus a dense Gaussian cluster — so cell populations vary
// wildly and the probe-shard balancer has real work to do.
func benchResidualTable(b *testing.B) *Table {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	n := benchRows
	xs := make([]float64, n)
	ys := make([]float64, n)
	as := make([]float64, n)
	cs := make([]float64, n)
	ds := make([]float64, n)
	for i := range xs {
		if i%10 < 3 {
			xs[i] = math.Min(math.Max(500+rng.NormFloat64()*80, 0), 999.99)
			ys[i] = math.Min(math.Max(500+rng.NormFloat64()*80, 0), 999.99)
		} else {
			xs[i] = rng.Float64() * 1000
			ys[i] = rng.Float64() * 1000
		}
		as[i] = rng.Float64() * 1000
		cs[i] = rng.Float64() * 1000
		ds[i] = rng.Float64() * 1000
	}
	tb, err := NewTable("benchr", "x", "y", "a", "c", "d")
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.BulkLoad(xs, ys, as, cs, ds); err != nil {
		b.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		b.Fatal(err)
	}
	return tb
}

// benchResidualViewport covers 64% of the extent: most touched cells
// are interior, so the spend is predicate evaluation, not the ring.
var benchResidualViewport = geom.Rect{MinX: 100, MinY: 100, MaxX: 900, MaxY: 900}

// benchResidualPreds sit near 30% selectivity each (a ~2.7% selective
// conjunction, the narrowing-filter dashboard case) — deep inside the
// band where the scalar loops' data-dependent branches mispredict
// constantly, and plain streaming throughput for the branch-free
// kernels.
var benchResidualPreds = []Pred{
	{Column: "a", Min: 200, Max: 500},
	{Column: "c", Min: 100, Max: 400},
	{Column: "d", Min: 300, Max: 600},
}

// benchResidualShapes runs the residual-heavy shapes through the batch
// kernels and the preserved scalar reference (forceScalarKernels), and
// reports kernel_speedup = scalar ns/op ÷ batch ns/op — the PR's
// headline acceptance metric, measured in one process on one table.
//
// Two shapes:
//   - "residual": the 64% viewport probe. Cell runs gather attribute
//     values at spatially-binned (scattered) row ids, so both kernels
//     are partly memory-latency bound and the batch win is modest.
//   - "residual-zoomout": the fully zoomed-out viewport with the same
//     filters. The adaptive planner has proven the zones useless by
//     then and routes it to the linear scan, where the kernels
//     stream columns sequentially — the branch-free win undiluted.
func benchResidualShapes(b *testing.B, tb *Table) {
	shapes := []struct {
		name string
		rect geom.Rect
	}{
		{"residual", benchResidualViewport},
		{"residual-zoomout", geom.Rect{}},
	}
	for _, shape := range shapes {
		for _, kernel := range []string{"batch", "scalar"} {
			b.Run(shape.name+"/kernel="+kernel, func(b *testing.B) {
				forceScalarKernels = kernel == "scalar"
				defer func() { forceScalarKernels = false }()
				// Let the adaptive zone planner converge before timing:
				// the uncorrelated columns earn a zone skip after the
				// first probes, and steady state is what serving sees.
				for i := 0; i < 2; i++ {
					if _, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{shape.rect}, benchResidualPreds); err != nil {
						b.Fatal(err)
					}
				}
				var touched, pruned, examined, batched int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows, st, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{shape.rect}, benchResidualPreds)
					if err != nil {
						b.Fatal(err)
					}
					if rows.IsEmpty() {
						b.Fatal("empty residual result")
					}
					touched += st.CellsTouched
					pruned += st.CellsPruned
					examined += st.RowsExamined
					batched += st.BatchedRows
				}
				b.StopTimer()
				if touched > 0 {
					b.ReportMetric(float64(pruned)/float64(touched), "prune_ratio")
				}
				if examined > 0 {
					b.ReportMetric(float64(batched)/float64(examined), "batched_frac")
				}
				if kernel == "batch" {
					// Same scan through the scalar loops, timed inline,
					// so the ratio lands in the committed bench JSON.
					const iters = 3
					forceScalarKernels = true
					start := time.Now()
					for i := 0; i < iters; i++ {
						if _, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{shape.rect}, benchResidualPreds); err != nil {
							b.Fatal(err)
						}
					}
					scalarPerOp := float64(time.Since(start).Nanoseconds()) / iters
					forceScalarKernels = false
					batchPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					if batchPerOp > 0 {
						b.ReportMetric(scalarPerOp/batchPerOp, "kernel_speedup")
					}
				}
			})
		}
	}
}

// BenchmarkScanLinearFiltered is the baseline the ≥3× acceptance
// criterion compares against: the same viewport+filter conjunctions
// answered by Table.Scan, one probe.span over every row.
func BenchmarkScanLinearFiltered(b *testing.B) {
	tb := benchFilteredTable(b)
	for _, name := range []string{"preds=0", "preds=1", "preds=3"} {
		preds := append([]Pred{
			{Column: "x", Min: benchViewport.MinX, Max: benchViewport.MaxX},
			{Column: "y", Min: benchViewport.MinY, Max: benchViewport.MaxY},
		}, benchFilterSets[name]...)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := tb.Scan(preds)
				if err != nil {
					b.Fatal(err)
				}
				if rows.IsEmpty() {
					b.Fatal("empty filtered result")
				}
			}
		})
	}
}

// ---- live ingest (ISSUE 5 acceptance) ----

// benchIngestTable builds the 1M-row filtered table and appends tail
// rows past its index's build watermark, with compaction off, so every
// probe filters the whole tail.
func benchIngestTable(b *testing.B, tail int) *Table {
	b.Helper()
	tb := benchFilteredTable(b)
	if tail > 0 {
		rng := rand.New(rand.NewSource(7))
		xs := make([]float64, tail)
		ys := make([]float64, tail)
		ms := make([]float64, tail)
		ts := make([]float64, tail)
		cs := make([]float64, tail)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
			ys[i] = rng.Float64() * 1000
			ms[i] = (xs[i]+ys[i])/2 + rng.NormFloat64()*5
			ts[i] = rng.Float64() * 1000
			cs[i] = float64(int(xs[i]/100) % 10)
		}
		if err := tb.AppendRows(xs, ys, ms, ts, cs); err != nil {
			b.Fatal(err)
		}
	}
	// Drop the garbage of earlier sub-benchmarks' tables before the
	// timed section: these benchmarks run late in the suite, and a GC
	// cycle scanning dead 1M-row tables mid-measurement distorts the
	// tail-vs-compacted comparison.
	runtime.GC()
	return tb
}

var benchIngestPred = []Pred{{Column: "m", Min: 520, Max: 540}}

// BenchmarkScanAfterAppend is the live-ingest serving path: the 1%
// filtered viewport of BenchmarkScanRectFiltered with tail appended
// rows, which the probe filters through the batch kernels as one dense
// range. tail=0 is the fully-compacted reference; tail=100k is a 10%
// tail, the point where auto-compaction at the default fraction is due.
func BenchmarkScanAfterAppend(b *testing.B) {
	for _, tail := range []int{0, 10_000, 100_000} {
		b.Run(benchTailName(tail), func(b *testing.B) {
			tb := benchIngestTable(b, tail)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{benchViewport}, benchIngestPred)
				if err != nil {
					b.Fatal(err)
				}
				if rows.IsEmpty() {
					b.Fatal("empty result")
				}
			}
		})
	}
}

func benchTailName(tail int) string {
	switch {
	case tail == 0:
		return "tail=0"
	case tail%1000 == 0:
		return "tail=" + strconv.Itoa(tail/1000) + "k"
	default:
		return "tail=" + strconv.Itoa(tail)
	}
}

// BenchmarkAppendThroughput measures the ingest write path: one-row
// and 1k-row AppendRows batches into a 1M-row indexed table — the
// column copy and the generation publish, with compaction off.
func BenchmarkAppendThroughput(b *testing.B) {
	b.Run("row", func(b *testing.B) {
		tb := benchIngestTable(b, 0)
		rng := rand.New(rand.NewSource(9))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			if err := tb.AppendRows([]float64{x}, []float64{y}, []float64{(x + y) / 2}, []float64{rng.Float64() * 1000}, []float64{3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch=1k", func(b *testing.B) {
		tb := benchIngestTable(b, 0)
		rng := rand.New(rand.NewSource(9))
		const bn = 1000
		xs := make([]float64, bn)
		ys := make([]float64, bn)
		ms := make([]float64, bn)
		ts := make([]float64, bn)
		cs := make([]float64, bn)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
			ys[i] = rng.Float64() * 1000
			ms[i] = (xs[i] + ys[i]) / 2
			ts[i] = rng.Float64() * 1000
			cs[i] = 3
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tb.AppendRows(xs, ys, ms, ts, cs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bn), "rows/op")
	})
}

// BenchmarkQueryFullExtentProjection is the allocs benchmark behind the
// "full extent performs zero row-id allocations" acceptance criterion:
// the All sentinel projects the whole table with a single allocation —
// the output slice — and allocs/op stays at 1 regardless of row count.
func BenchmarkQueryFullExtentProjection(b *testing.B) {
	tb := benchTable(b, benchRows, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := tb.Points("x", "y", All)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != benchRows {
			b.Fatalf("projected %d rows", len(pts))
		}
	}
}

// benchDeleteTable builds the retention bench fixture: 1M indexed rows
// with a filter column m and an independent uniform column used to
// tombstone an exact fraction of rows without correlating with either
// the viewport or the filter.
func benchDeleteTable(b *testing.B, deadFrac float64) *Table {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, benchRows)
	ys := make([]float64, benchRows)
	ms := make([]float64, benchRows)
	ds := make([]float64, benchRows)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = rng.Float64() * 1000
		ms[i] = rng.Float64() * 100
		ds[i] = rng.Float64()
	}
	tb, err := NewTable("bench", "x", "y", "m", "del")
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.BulkLoad(xs, ys, ms, ds); err != nil {
		b.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		b.Fatal(err)
	}
	if deadFrac > 0 {
		if _, err := tb.DeleteWhere([]Pred{{Column: "del", Min: 1 - deadFrac, Max: 2}}); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

func benchFilteredProbe(b *testing.B, tb *Table) {
	b.Helper()
	preds := []Pred{{Column: "m", Min: 25, Max: 75}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{benchViewport}, preds)
		if err != nil {
			b.Fatal(err)
		}
		pts, err := tb.Points("x", "y", rows)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("empty probe result")
		}
	}
}

// BenchmarkScanAfterDelete is the ISSUE 8 acceptance benchmark: the
// filtered 1% viewport probe over 1M rows with 10% of the table
// tombstoned must stay within 1.5x of the no-tombstone probe, and after
// the reclaiming compaction the probe must be indistinguishable from a
// fresh build over just the survivors.
func BenchmarkScanAfterDelete(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		benchFilteredProbe(b, benchDeleteTable(b, 0))
	})
	b.Run("tombstoned10pct", func(b *testing.B) {
		benchFilteredProbe(b, benchDeleteTable(b, 0.10))
	})
	b.Run("postCompaction", func(b *testing.B) {
		tb := benchDeleteTable(b, 0.10)
		tb.Compact() // physically reclaims the dead 10%
		if tb.NumRows() != tb.LiveRows() {
			b.Fatal("compaction left tombstones behind")
		}
		benchFilteredProbe(b, tb)
	})
}

// BenchmarkScanRectsUnion measures the multi-viewport query shape: two
// disjoint 1% viewports answered as one ScanRects union over the index.
func BenchmarkScanRectsUnion(b *testing.B) {
	tb := benchTable(b, benchRows, true)
	rects := []geom.Rect{
		{MinX: 150, MinY: 150, MaxX: 250, MaxY: 250},
		{MinX: 650, MinY: 650, MaxX: 750, MaxY: 750},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := tb.View().ScanRects(context.Background(), "x", "y", rects, nil)
		if err != nil {
			b.Fatal(err)
		}
		pts, err := tb.Points("x", "y", rows)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("empty union result")
		}
	}
}
