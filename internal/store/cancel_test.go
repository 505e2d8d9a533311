package store

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
)

// newCancelTable builds a 1M-row table with a spatial index and a
// filter column — the zoomout shape of the cancellation acceptance
// criterion: a rect covering everything plus a residual predicate, so
// the scan has real work at every boundary the canceler polls.
func newCancelTable(t testing.TB) *Table {
	t.Helper()
	st := New()
	tb, err := st.CreateTable("big", "x", "y", "m")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, n)
	ys := make([]float64, n)
	ms := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = rng.Float64() * 1000
		ms[i] = rng.Float64()
	}
	if err := tb.BulkLoad(xs, ys, ms); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	return tb
}

var cancelZoomout = geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

var cancelPreds = []Pred{{Column: "m", Min: 0.25, Max: 0.75}}

// TestScanCancellationPrompt: a context canceled before the call makes
// every Ctx entry point return context.Canceled well under the 50ms
// acceptance bound instead of finishing the 1M-row scan, and no partial
// result escapes.
func TestScanCancellationPrompt(t *testing.T) {
	tb := newCancelTable(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	calls := []struct {
		name string
		run  func() (int, error)
	}{
		{"ScanRectWhereCtx", func() (int, error) {
			rs, _, err := tb.ScanRectWhereCtx(ctx, "x", "y", cancelZoomout, cancelPreds)
			return rs.Len(), err
		}},
		{"ScanRectsCtx", func() (int, error) {
			rs, _, err := tb.ScanRectsCtx(ctx, "x", "y", []geom.Rect{cancelZoomout, cancelZoomout}, cancelPreds)
			return rs.Len(), err
		}},
		{"NearestCtx", func() (int, error) {
			nb, _, err := tb.NearestCtx(ctx, "x", "y", 500, 500, 10, cancelPreds)
			return len(nb), err
		}},
	}
	for _, c := range calls {
		start := time.Now()
		n, err := c.run()
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s with canceled ctx: err = %v, want context.Canceled", c.name, err)
		}
		if n != 0 {
			t.Fatalf("%s returned %d rows alongside the cancellation", c.name, n)
		}
		if elapsed > cancelLatencyBound {
			t.Fatalf("%s took %s to notice the canceled ctx, want < %s", c.name, elapsed, cancelLatencyBound)
		}
	}
}

// TestScanDeadlinePropagation: an expired deadline surfaces as
// context.DeadlineExceeded (the taxonomy the HTTP layer maps to 503),
// through the same polls.
func TestScanDeadlinePropagation(t *testing.T) {
	tb := newCancelTable(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := tb.ScanRectWhereCtx(ctx, "x", "y", cancelZoomout, cancelPreds)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	_, _, err = tb.NearestCtx(ctx, "x", "y", 500, 500, 10, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline kNN: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestScanMidFlightCancellation cancels while the scan is running and
// requires the return within the acceptance bound, measured from the
// cancel. If the scan happens to win the race outright its (complete)
// result is fine — the test only rejects a cancellation that is
// acknowledged slowly.
func TestScanMidFlightCancellation(t *testing.T) {
	tb := newCancelTable(t)
	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		err error
	}
	done := make(chan res, 1)
	go func() {
		// Many rects multiply the work so the cancel reliably lands
		// mid-flight.
		rects := make([]geom.Rect, 64)
		for i := range rects {
			rects[i] = cancelZoomout
		}
		_, _, err := tb.ScanRectsCtx(ctx, "x", "y", rects, cancelPreds)
		done <- res{err}
	}()
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	cancel()
	r := <-done
	elapsed := time.Since(start)
	if r.err != nil && !errors.Is(r.err, context.Canceled) {
		t.Fatalf("mid-flight cancel: err = %v", r.err)
	}
	if elapsed > cancelLatencyBound {
		t.Fatalf("scan acknowledged cancellation after %s, want < %s", elapsed, cancelLatencyBound)
	}
}

// TestBackgroundContextUnchanged: a context that cannot be canceled
// takes the nil-canceler path and returns exactly what the context-free
// entry points do.
func TestBackgroundContextUnchanged(t *testing.T) {
	tb := newCancelTable(t)
	// Warm lazily-built zone maps so both measured scans see the same
	// pruning state.
	if _, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{cancelZoomout}, cancelPreds); err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{cancelZoomout}, cancelPreds)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := tb.ScanRectWhereCtx(context.Background(), "x", "y", cancelZoomout, cancelPreds)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || gotSt != wantSt {
		t.Fatalf("Background ctx diverged: %d rows %+v vs %d rows %+v",
			got.Len(), gotSt, want.Len(), wantSt)
	}
}
