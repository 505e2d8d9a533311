package store

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
)

// TestFilteredScanHammer hammers one table with concurrent Append
// (an appended tail past the index), IndexOn rebuilds, background-style
// Compact calls, store-level table replacement churn, and filtered
// ScanRectWhere readers. It extends the PR 1 scan-vs-reload pattern to
// the predicate-pushdown and tail-compaction paths and asserts, under
// -race, snapshot consistency: a reader can never panic, never sees a
// row twice or out of order, never sees rows outside its snapshot
// generation, never receives a row that fails its predicates — and
// never MISSES a published matching row: every row that existed before
// the scan started and satisfies viewport + predicates must be in the
// result, no matter how many compactions published mid-scan.
//
// The validation leans on the generation contract: rows are append-only
// while this test runs, so any row id a scan returns must be < NumRows
// observed AFTER the scan, every row id < NumRows observed BEFORE the
// scan is in whatever snapshot the scan used, and the first-n-rows
// prefix of every column is immutable — a Column snapshot taken after
// the scan therefore holds exactly the values the scan evaluated.
//
// Every reader here also exercises the batch selection kernels: the
// NaN-laced appends keep the kernels' NaN-matches semantics under
// concurrent load, complementing the single-threaded equivalence
// tests in kernel_test.go.
func TestFilteredScanHammer(t *testing.T) {
	st := New()
	tb, err := st.CreateTable("h", "x", "y", "m")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	n0 := 4000
	xs := make([]float64, n0)
	ys := make([]float64, n0)
	ms := make([]float64, n0)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = rng.Float64() * 100
		ms[i] = (xs[i] + ys[i]) / 2
	}
	if err := tb.BulkLoad(xs, ys, ms); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Appender: grows the table one row at a time (some rows NaN).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for time.Now().Before(deadline) {
			x := rng.Float64() * 100
			if rng.Intn(50) == 0 {
				x = nan()
			}
			y := rng.Float64() * 100
			if err := appendRow(tb, x, y, (x+y)/2); err != nil {
				report(err)
				return
			}
		}
	}()

	// Indexer: absorbs the appended tail back into the grid.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if err := tb.IndexOn("x", "y"); err != nil {
				report(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Backend churner: flips the forced-backend seam under the live
	// appends, compactions, and scans, forcing grid→tree→occupancy
	// rebuilds to publish mid-flight. Readers must stay exact across
	// every flip. useBackend restores the seam when the test ends.
	useBackend(t, "")
	wg.Add(1)
	go func() {
		defer wg.Done()
		modes := []string{BackendRTree, BackendGrid, ""}
		for i := 0; time.Now().Before(deadline); i++ {
			forceBackend(modes[i%len(modes)])
			if err := tb.IndexOn("x", "y"); err != nil {
				report(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// kNN reader: structural assertions under churn — results ascending
	// by (distance, row), within the snapshot, matching the predicate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(55))
		for time.Now().Before(deadline) {
			preds := []Pred{{Column: "m", Min: 20, Max: 80}}
			ns, _, err := tb.View().Nearest(context.Background(), "x", "y", rng.Float64()*100, rng.Float64()*100, 12, preds)
			if err != nil {
				report(err)
				return
			}
			nAfter := tb.NumRows()
			mc, err := tb.Column("m")
			if err != nil {
				report(err)
				return
			}
			for i, nb := range ns {
				if nb.Row < 0 || nb.Row >= nAfter {
					t.Errorf("kNN row %d outside snapshot (n %d)", nb.Row, nAfter)
					return
				}
				if i > 0 && (ns[i-1].Dist > nb.Dist || (ns[i-1].Dist == nb.Dist && ns[i-1].Row >= nb.Row)) {
					t.Errorf("kNN results out of order at %d: %+v then %+v", i, ns[i-1], nb)
					return
				}
				if mc[nb.Row] < 20 || mc[nb.Row] > 80 {
					t.Errorf("kNN row %d m=%g fails predicate", nb.Row, mc[nb.Row])
					return
				}
			}
		}
	}()

	// Compactor: folds the tail into fresh generations while scans and
	// appends are in flight — the background-compaction publish racing
	// the read path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			tb.Compact()
			time.Sleep(time.Millisecond)
		}
	}()

	// Catalog churn: replace the table name in the store with a fresh
	// table, the way a snapshot load does. Readers keep their handle to
	// the original table, which stays fully usable after it is replaced.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			fresh, err := NewTable("h", "x", "y", "m")
			if err != nil {
				report(err)
				return
			}
			if err := st.PublishCatalog([]*Table{fresh}, nil); err != nil {
				report(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Filtered scanners.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				lo := rng.Float64() * 80
				vp := geom.Rect{MinX: lo, MinY: lo, MaxX: lo + 30, MaxY: lo + 30}
				preds := []Pred{{Column: "m", Min: lo, Max: lo + 20}}
				if rng.Intn(4) == 0 {
					vp = geom.Rect{} // pure attribute filter over the grid
				}
				nBefore := tb.NumRows()
				rows, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{vp}, preds)
				if err != nil {
					report(err)
					return
				}
				// The snapshot generation bound: every returned row must
				// exist in a generation no newer than "now".
				nAfter := tb.NumRows()
				xc, err := tb.Column("x")
				if err != nil {
					report(err)
					return
				}
				yc, _ := tb.Column("y")
				mc, _ := tb.Column("m")
				prev := -1
				bad := false
				rows.ForEach(func(r int) {
					if bad {
						return
					}
					if r <= prev || r < 0 || r >= nAfter || r >= len(xc) {
						t.Errorf("row %d out of order or outside the snapshot (prev %d, n %d)", r, prev, nAfter)
						bad = true
						return
					}
					prev = r
					if vp != (geom.Rect{}) && !inRect(xc[r], yc[r], vp) {
						t.Errorf("row %d (%g,%g) outside viewport %v", r, xc[r], yc[r], vp)
						bad = true
						return
					}
					if mc[r] < preds[0].Min || mc[r] > preds[0].Max {
						t.Errorf("row %d m=%g fails predicate [%g,%g]", r, mc[r], preds[0].Min, preds[0].Max)
						bad = true
					}
				})
				if bad {
					return
				}
				// Completeness: every row published before the scan
				// started that satisfies viewport + predicate must be
				// in the result — a compaction or rebuild publishing
				// mid-scan may neither hide a row nor double it (the
				// r <= prev check above catches duplicates).
				for r := 0; r < nBefore; r++ {
					inVp := vp == (geom.Rect{}) || inRect(xc[r], yc[r], vp)
					match := inVp && !(mc[r] < preds[0].Min || mc[r] > preds[0].Max)
					if match && !rows.Contains(r) {
						t.Errorf("published row %d (%g,%g m=%g) missing from scan (nBefore %d)",
							r, xc[r], yc[r], mc[r], nBefore)
						return
					}
				}
			}
		}(int64(100 + w))
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("hammer goroutine failed: %v", err)
	}
}

func nan() float64 { var z float64; return z / z }

// TestDeleteHammer races DeleteWhere against Append, IndexOn, and the
// reclaiming Compact path. Physical reclaim rebases row ids, so unlike
// TestFilteredScanHammer the column prefix is NOT immutable here and no
// value-level completeness check is possible; the quiescent equivalence
// lives in TestDeleteEquivalenceProperty. What must hold under -race at
// all times: no panic, no error from any path, and every scan returns a
// strictly ascending duplicate-free row set within its snapshot.
func TestDeleteHammer(t *testing.T) {
	tb, err := NewTable("h", "x", "y", "m")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	n0 := 4000
	xs := make([]float64, n0)
	ys := make([]float64, n0)
	ms := make([]float64, n0)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = rng.Float64() * 100
		ms[i] = float64(i % 100)
	}
	if err := tb.BulkLoad(xs, ys, ms); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Appender keeps the table growing so deletes always find prey.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for time.Now().Before(deadline) {
			x := rng.Float64() * 100
			if rng.Intn(50) == 0 {
				x = nan()
			}
			if err := appendRow(tb, x, rng.Float64()*100, float64(rng.Intn(100))); err != nil {
				report(err)
				return
			}
		}
	}()

	// Deleters: rectangle and predicate tombstoning, occasionally the
	// optimistic-retry worst case of two racing delete-alls.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				var err error
				switch rng.Intn(3) {
				case 0:
					lo := rng.Float64() * 90
					_, err = tb.DeleteWhere(rectPreds(geom.Rect{MinX: lo, MinY: lo, MaxX: lo + 5, MaxY: lo + 5}))
				default:
					m := float64(rng.Intn(100))
					_, err = tb.DeleteWhere([]Pred{{Column: "m", Min: m, Max: m}})
				}
				if err != nil {
					report(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(int64(200 + w))
	}

	// Indexer and reclaiming compactor, racing the tombstone writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if err := tb.IndexOn("x", "y"); err != nil {
				report(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			tb.Compact()
			time.Sleep(time.Millisecond)
		}
	}()

	// Readers: structural assertions only (see the doc comment).
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				lo := rng.Float64() * 80
				vp := geom.Rect{MinX: lo, MinY: lo, MaxX: lo + 30, MaxY: lo + 30}
				var rects []geom.Rect
				if rng.Intn(2) == 0 {
					rects = []geom.Rect{vp, {MinX: lo + 40, MinY: lo + 40, MaxX: lo + 60, MaxY: lo + 60}}
				} else {
					rects = []geom.Rect{vp}
				}
				rows, _, err := tb.View().ScanRects(context.Background(), "x", "y", rects, []Pred{{Column: "m", Min: 10, Max: 90}})
				if err != nil {
					report(err)
					return
				}
				// A reclaim publishing mid-loop SHRINKS NumRows, so the
				// scan's ids cannot be bounded by a later NumRows read —
				// only order and non-negativity are stable claims.
				prev := -1
				bad := false
				rows.ForEach(func(r int) {
					if bad {
						return
					}
					if r <= prev || r < 0 {
						t.Errorf("row %d out of order or negative (prev %d)", r, prev)
						bad = true
						return
					}
					prev = r
				})
				if bad {
					return
				}
				if live := tb.LiveRows(); live < 0 {
					t.Errorf("LiveRows went negative: %d", live)
					return
				}
			}
		}(int64(300 + w))
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("delete hammer goroutine failed: %v", err)
	}
}
