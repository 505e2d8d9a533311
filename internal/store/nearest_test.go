package store

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// bruteNearest is the reference kNN: sort every visible matching row by
// (distance, row id) and take k. Shares no code with the heap or the
// tree descent.
func bruteNearest(tb *Table, x, y float64, k int, preds []Pred) []Neighbor {
	xs, _ := tb.Column("x")
	ys, _ := tb.Column("y")
	rows, err := tb.Scan(preds)
	if err != nil {
		panic(err)
	}
	var all []Neighbor
	rows.ForEach(func(r int) {
		dx, dy := xs[r]-x, ys[r]-y
		d2 := dx*dx + dy*dy
		if math.IsNaN(d2) {
			return
		}
		all = append(all, Neighbor{Row: r, X: xs[r], Y: ys[r], Dist: math.Sqrt(d2)})
	})
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Row < all[b].Row
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestNearestMatchesBruteForce is the kNN property test: under every
// backend (grid, tree, auto, unindexed), with NaN and ±Inf coordinates,
// duplicate points (distance ties), k exceeding the live row count,
// tombstoned rows, and appended tails, Table.Nearest returns exactly
// the brute-force sort-by-distance answer.
func TestNearestMatchesBruteForce(t *testing.T) {
	backends := []string{"", BackendGrid, BackendRTree, BackendAuto}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(3000)
		xs := make([]float64, n)
		ys := make([]float64, n)
		ms := make([]float64, n)
		for i := range xs {
			switch rng.Intn(40) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				ys[i] = math.Inf(1 - 2*rng.Intn(2))
				xs[i] = rng.Float64() * 100
			default:
				// Quantized coordinates make exact distance ties common.
				xs[i] = float64(rng.Intn(40))
				ys[i] = float64(rng.Intn(40))
			}
			ms[i] = float64(rng.Intn(50))
		}
		backend := backends[trial%len(backends)]
		tb, err := NewTable("t", "x", "y", "m")
		if err != nil {
			t.Fatal(err)
		}
		if backend != "" {
			if err := tb.SetIndexBackend(backend); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.BulkLoad(xs, ys, ms); err != nil {
			t.Fatal(err)
		}
		indexed := trial%5 != 4
		if indexed {
			if err := tb.IndexOn("x", "y"); err != nil {
				t.Fatal(err)
			}
		}
		// Appended tail past the index build watermark.
		for i := 0; i < rng.Intn(50); i++ {
			if err := tb.Append(float64(rng.Intn(40)), float64(rng.Intn(40)), float64(rng.Intn(50))); err != nil {
				t.Fatal(err)
			}
		}
		// Tombstones: kNN must never resurrect a deleted row.
		if n > 0 && trial%2 == 0 {
			if _, err := tb.DeleteRect("x", "y", geom.Rect{MinX: 5, MinY: 5, MaxX: 12, MaxY: 12}); err != nil {
				t.Fatal(err)
			}
		}
		queries := []struct{ x, y float64 }{
			{20, 20},
			{-5, 100},
			{0, 0},
			{rng.Float64()*60 - 10, rng.Float64()*60 - 10},
			{math.Inf(1), 0}, // ±Inf query points are legal; only NaN is not
		}
		predSets := [][]Pred{
			nil,
			{{Column: "m", Min: 10, Max: 30}},
			{{Column: "m", Min: 10, Max: 30}, {Column: "x", Min: 0, Max: 25}},
		}
		ks := []int{1, 3, 7, tb.NumRows() + 10}
		for _, q := range queries {
			for _, preds := range predSets {
				for _, k := range ks {
					got, st, err := tb.View().Nearest(context.Background(), "x", "y", q.x, q.y, k, preds)
					if err != nil {
						t.Fatalf("trial %d backend %q: %v", trial, backend, err)
					}
					want := bruteNearest(tb, q.x, q.y, k, preds)
					if len(got) != len(want) {
						t.Fatalf("trial %d backend %q q=(%g,%g) k=%d preds=%v: %d results, brute force %d (stats %+v)",
							trial, backend, q.x, q.y, k, preds, len(got), len(want), st)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("trial %d backend %q q=(%g,%g) k=%d preds=%v: result %d: %+v, brute force %+v",
								trial, backend, q.x, q.y, k, preds, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestNearestValidation pins the error surface: non-positive k, a NaN
// query point, and unknown columns all reject without touching data.
func TestNearestValidation(t *testing.T) {
	tb, err := NewTable("t", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoad([]float64{1, 2}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.View().Nearest(context.Background(), "x", "y", 0, 0, 0, nil); !errors.Is(err, ErrBadNearest) {
		t.Fatalf("k=0: err %v, want ErrBadNearest", err)
	}
	if _, _, err := tb.View().Nearest(context.Background(), "x", "y", 0, 0, -3, nil); !errors.Is(err, ErrBadNearest) {
		t.Fatalf("k<0: err %v, want ErrBadNearest", err)
	}
	if _, _, err := tb.View().Nearest(context.Background(), "x", "y", math.NaN(), 0, 1, nil); !errors.Is(err, ErrBadNearest) {
		t.Fatalf("NaN x: err %v, want ErrBadNearest", err)
	}
	if _, _, err := tb.View().Nearest(context.Background(), "x", "y", 0, math.NaN(), 1, nil); !errors.Is(err, ErrBadNearest) {
		t.Fatalf("NaN y: err %v, want ErrBadNearest", err)
	}
	if _, _, err := tb.View().Nearest(context.Background(), "z", "y", 0, 0, 1, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown x column: err %v, want ErrNotFound", err)
	}
	if _, _, err := tb.View().Nearest(context.Background(), "x", "y", 0, 0, 1, []Pred{{Column: "q"}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown pred column: err %v, want ErrNotFound", err)
	}
	// kNN is exact over ±Inf rows: at an infinite query point the finite
	// rows sit at distance +Inf, which is still comparable.
	if ns, _, err := tb.View().Nearest(context.Background(), "x", "y", math.Inf(1), 0, 1, nil); err != nil || len(ns) != 1 {
		t.Fatalf("Inf query point: %v, %d results", err, len(ns))
	}
}

// TestBackendEquivalenceOnSkew drives ScanRectWhere through the tree
// backend, the grid backend, and the no-index linear path over heavily
// clustered data and requires identical row sets and exact-count
// agreement on every probe — the "tree ≡ grid ≡ linear" property.
func TestBackendEquivalenceOnSkew(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		n := 30_000
		xs := make([]float64, n)
		ys := make([]float64, n)
		ms := make([]float64, n)
		// ~90% of rows in a tight Gaussian cluster, the rest uniform
		// background; a few NaN rows ride along.
		for i := range xs {
			if rng.Intn(10) == 0 {
				xs[i] = rng.Float64() * 1000
				ys[i] = rng.Float64() * 1000
			} else {
				xs[i] = 500 + rng.NormFloat64()*1.5
				ys[i] = 500 + rng.NormFloat64()*1.5
			}
			if rng.Intn(300) == 0 {
				xs[i] = math.NaN()
			}
			ms[i] = (xs[i] + ys[i]) / 2
		}
		mk := func(backend string, index bool) *Table {
			tb, err := NewTable("t", "x", "y", "m")
			if err != nil {
				t.Fatal(err)
			}
			if backend != "" {
				if err := tb.SetIndexBackend(backend); err != nil {
					t.Fatal(err)
				}
			}
			if err := tb.BulkLoad(xs, ys, ms); err != nil {
				t.Fatal(err)
			}
			if index {
				if err := tb.IndexOn("x", "y"); err != nil {
					t.Fatal(err)
				}
			}
			return tb
		}
		tree := mk(BackendRTree, true)
		grid := mk(BackendGrid, true)
		linear := mk("", false)
		if got := tree.snapshot().indexFor(0, 1).backend(); got != BackendRTree {
			t.Fatalf("tree table carries backend %q", got)
		}
		if got := grid.snapshot().indexFor(0, 1).backend(); got != BackendGrid {
			t.Fatalf("grid table carries backend %q", got)
		}
		for probe := 0; probe < 20; probe++ {
			var r geom.Rect
			if probe%3 == 0 {
				// Viewport clipping the cluster: the skew worst case.
				r = geom.Rect{MinX: 499, MinY: 499, MaxX: 500.5, MaxY: 500.5}
			} else {
				r = geom.NewRect(
					geom.Pt(rng.Float64()*1100-50, rng.Float64()*1100-50),
					geom.Pt(rng.Float64()*1100-50, rng.Float64()*1100-50),
				)
			}
			var preds []Pred
			if probe%2 == 1 {
				preds = []Pred{{Column: "m", Min: rng.Float64() * 600, Max: 400 + rng.Float64()*600}}
			}
			tr, _, err := tree.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
			if err != nil {
				t.Fatal(err)
			}
			gr, _, err := grid.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
			if err != nil {
				t.Fatal(err)
			}
			lr, _, err := linear.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
			if err != nil {
				t.Fatal(err)
			}
			ti, gi, li := tr.Indices(), gr.Indices(), lr.Indices()
			if len(ti) != len(gi) || len(ti) != len(li) {
				t.Fatalf("trial %d probe %d rect %v: tree %d, grid %d, linear %d rows",
					trial, probe, r, len(ti), len(gi), len(li))
			}
			for i := range ti {
				if ti[i] != gi[i] || ti[i] != li[i] {
					t.Fatalf("trial %d probe %d rect %v row %d: tree %d, grid %d, linear %d",
						trial, probe, r, i, ti[i], gi[i], li[i])
				}
			}
		}
	}
}

// TestAutoBackendSelection pins the planner policy: heavily clustered
// data selects the tree, uniform data keeps the grid, and explicit
// modes override the evidence in both directions.
func TestAutoBackendSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 50_000
	cxs := make([]float64, n)
	cys := make([]float64, n)
	uxs := make([]float64, n)
	uys := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			cxs[i], cys[i] = rng.Float64()*1000, rng.Float64()*1000
		} else {
			cxs[i], cys[i] = 500+rng.NormFloat64(), 500+rng.NormFloat64()
		}
		uxs[i], uys[i] = rng.Float64()*1000, rng.Float64()*1000
	}
	mk := func(mode string, xs, ys []float64) string {
		tb, err := NewTable("t", "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		if mode != "" {
			if err := tb.SetIndexBackend(mode); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.BulkLoad(xs, ys); err != nil {
			t.Fatal(err)
		}
		if err := tb.IndexOn("x", "y"); err != nil {
			t.Fatal(err)
		}
		return tb.snapshot().indexFor(0, 1).backend()
	}
	if got := mk(BackendAuto, cxs, cys); got != BackendRTree {
		t.Errorf("auto on clustered data chose %q, want rtree", got)
	}
	if got := mk(BackendAuto, uxs, uys); got != BackendGrid {
		t.Errorf("auto on uniform data chose %q, want grid", got)
	}
	if got := mk(BackendGrid, cxs, cys); got != BackendGrid {
		t.Errorf("grid override on clustered data chose %q", got)
	}
	if got := mk(BackendRTree, uxs, uys); got != BackendRTree {
		t.Errorf("rtree override on uniform data chose %q", got)
	}
	if err := (&Table{}).SetIndexBackend("btree"); err == nil {
		t.Error("unknown backend mode accepted")
	}
}

// TestIndexOnFlipsBackend: SetIndexBackend + IndexOn genuinely rebuilds
// under the new policy (the skip-rebuild fast path must not pin the old
// backend), and kNN stays exact across the flip.
func TestIndexOnFlipsBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 10_000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*100, rng.Float64()*100
	}
	tb, err := NewTable("t", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{BackendRTree, BackendGrid, BackendRTree, BackendAuto} {
		if err := tb.SetIndexBackend(mode); err != nil {
			t.Fatal(err)
		}
		if err := tb.IndexOn("x", "y"); err != nil {
			t.Fatal(err)
		}
		got := tb.snapshot().indexFor(0, 1).backend()
		if mode == BackendRTree && got != BackendRTree {
			t.Fatalf("after SetIndexBackend(rtree)+IndexOn: backend %q", got)
		}
		if mode == BackendGrid && got != BackendGrid {
			t.Fatalf("after SetIndexBackend(grid)+IndexOn: backend %q", got)
		}
		ns, _, err := tb.View().Nearest(context.Background(), "x", "y", 50, 50, 9, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteNearest(tb, 50, 50, 9, nil)
		for i := range want {
			if ns[i] != want[i] {
				t.Fatalf("mode %s: kNN diverged at %d: %+v vs %+v", mode, i, ns[i], want[i])
			}
		}
	}
}
