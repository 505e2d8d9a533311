package store

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// assertScanRectEquiv checks ScanRect against the linear predicate scan
// on one rectangle: same rows, same order. The zero Rect is the one
// deliberate divergence from the literal predicate translation — it
// means "no restriction", agreeing with Scan's empty predicate list.
func assertScanRectEquiv(t *testing.T, tb *Table, r geom.Rect, label string) {
	t.Helper()
	got, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, nil)
	if err != nil {
		t.Fatalf("%s: ScanRect: %v", label, err)
	}
	preds := []Pred{
		{Column: "x", Min: r.MinX, Max: r.MaxX},
		{Column: "y", Min: r.MinY, Max: r.MaxY},
	}
	if r == (geom.Rect{}) {
		preds = nil
	}
	want, err := tb.Scan(preds)
	if err != nil {
		t.Fatalf("%s: Scan: %v", label, err)
	}
	g, w := got.Indices(), want.Indices()
	if len(g) != len(w) {
		t.Fatalf("%s over %v: ScanRect %d rows, linear %d rows", label, r, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s over %v: row %d: ScanRect %d, linear %d", label, r, i, g[i], w[i])
		}
	}
}

// randomPoints draws n points from a mix of a uniform cloud and a few
// tight clusters, so grid cells have very uneven occupancy.
func randomPoints(rng *rand.Rand, n int) ([]float64, []float64) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	cx, cy := rng.Float64()*100, rng.Float64()*100
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			xs[i] = cx + rng.NormFloat64()
			ys[i] = cy + rng.NormFloat64()
		} else {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
	}
	return xs, ys
}

// TestScanRectMatchesLinearScan is the property test of the read-path
// refactor: on random tables and viewports — including degenerate,
// empty, boundary-aligned, and out-of-bounds rectangles — an index probe
// must return exactly the rows of the linear predicate scan, in the same
// order, for indexed and unindexed tables alike.
func TestScanRectMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(4000)
		if trial == 0 {
			n = 0 // empty table
		}
		xs, ys := randomPoints(rng, n)
		// Every third trial carries dirty rows: NaN/±Inf coordinates are
		// excluded from the grid and filtered per probe.
		if trial%3 == 1 {
			for i := 0; i < n/50+1 && i < n; i++ {
				j := rng.Intn(n)
				switch i % 3 {
				case 0:
					xs[j] = math.NaN()
				case 1:
					ys[j] = math.Inf(1)
				default:
					xs[j], ys[j] = math.Inf(-1), math.NaN()
				}
			}
		}
		tb, err := NewTable("t", "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.BulkLoad(xs, ys); err != nil {
			t.Fatal(err)
		}
		indexed := trial%2 == 0
		if indexed {
			if err := tb.IndexOn("x", "y"); err != nil {
				t.Fatal(err)
			}
		}
		label := "linear-fallback"
		if indexed {
			label = "indexed"
		}

		rects := []geom.Rect{
			{},                                   // zero Rect: "no restriction", every row incl. non-finite
			{MinX: 5, MinY: 5, MaxX: 4, MaxY: 4}, // empty (inverted)
			{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}, // covers everything
			{MinX: 200, MinY: 200, MaxX: 300, MaxY: 300},   // fully outside the data
			{MinX: -50, MinY: 20, MaxX: 30, MaxY: 400},     // partially outside
			// Extreme corners: network viewports can carry values whose
			// cell quotient overflows a float→int conversion; these must
			// neither panic nor drop rows (regression for the clampCell
			// overflow).
			{MinX: 50, MinY: 20, MaxX: 1e300, MaxY: 60},
			{MinX: 20, MinY: 50, MaxX: 60, MaxY: 1e300},
			{MinX: -1e300, MinY: -1e300, MaxX: 1e300, MaxY: 1e300},
			{MinX: math.Inf(-1), MinY: 30, MaxX: math.Inf(1), MaxY: 70},
			// NaN bounds exclude nothing under predicate semantics (every
			// comparison is false); ScanRect must treat them as unbounded.
			{MinX: math.NaN(), MinY: 30, MaxX: 60, MaxY: math.NaN()},
			{MinX: math.NaN(), MinY: math.NaN(), MaxX: math.NaN(), MaxY: math.NaN()},
		}
		if n > 0 {
			b, err := tb.Bounds("x", "y")
			if err != nil {
				t.Fatal(err)
			}
			rects = append(rects,
				b, // exactly the data extent
				geom.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MinX, MaxY: b.MaxY}, // degenerate vertical line on the extent edge
				geom.Rect{MinX: xs[0], MinY: ys[0], MaxX: xs[0], MaxY: ys[0]},     // degenerate point on a data point
			)
			// Random sub-viewports, plus rects whose corners are data
			// points — boundary rows sit exactly on the inclusive edge.
			for q := 0; q < 12; q++ {
				var r geom.Rect
				if q%3 == 0 {
					i, j := rng.Intn(n), rng.Intn(n)
					r = geom.NewRect(geom.Pt(xs[i], ys[i]), geom.Pt(xs[j], ys[j]))
				} else {
					r = geom.NewRect(
						geom.Pt(rng.Float64()*120-10, rng.Float64()*120-10),
						geom.Pt(rng.Float64()*120-10, rng.Float64()*120-10),
					)
				}
				rects = append(rects, r)
			}
		}
		for _, r := range rects {
			assertScanRectEquiv(t, tb, r, label)
		}

		// Rows appended after the index build take the unindexed tail
		// path and must still agree with the linear scan.
		if indexed && n > 0 {
			for i := 0; i < 50; i++ {
				if err := appendRow(tb, rng.Float64()*150-25, rng.Float64()*150-25); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range rects {
				assertScanRectEquiv(t, tb, r, label+"+appended-tail")
			}
			// A reload rebuilds the index against the new generation.
			xs2, ys2 := randomPoints(rng, 500)
			if err := tb.BulkLoad(xs2, ys2); err != nil {
				t.Fatal(err)
			}
			for _, r := range rects {
				assertScanRectEquiv(t, tb, r, label+"+reloaded")
			}
		}
	}
}

// assertFilteredEquiv checks ScanRectWhere against the linear predicate
// scan — Scan with the rectangle folded into the predicate list is the
// reference implementation, since the two are documented row-for-row
// equivalent. The result is additionally round-tripped through each
// RowSet representation (ids, bitmap, and the auto-chosen one) to pin
// that iteration order, length, and membership agree across all three.
func assertFilteredEquiv(t *testing.T, tb *Table, r geom.Rect, preds []Pred, label string) {
	t.Helper()
	got, st, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
	if err != nil {
		t.Fatalf("%s: ScanRectWhere: %v", label, err)
	}
	var ref []Pred
	if r != (geom.Rect{}) {
		ref = append(ref,
			Pred{Column: "x", Min: r.MinX, Max: r.MaxX},
			Pred{Column: "y", Min: r.MinY, Max: r.MaxY},
		)
	}
	ref = append(ref, preds...)
	want, err := tb.Scan(ref)
	if err != nil {
		t.Fatalf("%s: Scan: %v", label, err)
	}
	g, w := got.Indices(), want.Indices()
	if len(g) != len(w) {
		t.Fatalf("%s over %v preds %v: ScanRectWhere %d rows, linear %d rows (stats %+v)",
			label, r, preds, len(g), len(w), st)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s over %v preds %v: row %d: ScanRectWhere %d, linear %d",
				label, r, preds, i, g[i], w[i])
		}
	}
	if st.CellsPruned > st.CellsTouched {
		t.Fatalf("%s: pruned %d of %d touched cells", label, st.CellsPruned, st.CellsTouched)
	}
	// Representation round-trip: the same row set spelled as explicit
	// ids, as a bitmap, and as whatever the chooser picked must agree on
	// every accessor.
	reps := []RowSet{got, RowIndices(append([]int(nil), w...))}
	if len(w) > 0 {
		reps = append(reps, RowSet{bm: bitmapFromSorted(w), end: -1})
	}
	for ri, rep := range reps {
		if rep.Len() != len(w) {
			t.Fatalf("%s rep %d: Len %d, want %d", label, ri, rep.Len(), len(w))
		}
		i := 0
		rep.ForEach(func(row int) {
			if i < len(w) && row != w[i] {
				t.Fatalf("%s rep %d: ForEach[%d] = %d, want %d", label, ri, i, row, w[i])
			}
			i++
		})
		if i != len(w) {
			t.Fatalf("%s rep %d: ForEach visited %d rows, want %d", label, ri, i, len(w))
		}
		if len(w) > 0 {
			if lo, _ := rep.Min(); lo != w[0] {
				t.Fatalf("%s rep %d: Min %d, want %d", label, ri, lo, w[0])
			}
			if hi, _ := rep.Max(); hi != w[len(w)-1] {
				t.Fatalf("%s rep %d: Max %d, want %d", label, ri, hi, w[len(w)-1])
			}
			if !rep.Contains(w[len(w)/2]) {
				t.Fatalf("%s rep %d: Contains(%d) = false", label, ri, w[len(w)/2])
			}
		}
	}
}

// TestScanRectFilteredMatchesLinearScan is the predicate-pushdown
// property test: on random 4-column tables — with NaN values injected
// into the filter columns as well as the coordinate pair — a filtered
// index probe must return exactly the rows of the linear predicate scan
// for random viewports × random predicate sets, across indexed and
// unindexed tables, appended tails, and all three RowSet
// representations.
func TestScanRectFilteredMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	randPred := func(col string, n int) Pred {
		switch rng.Intn(5) {
		case 0: // selective band
			lo := rng.Float64() * 100
			return Pred{Column: col, Min: lo, Max: lo + rng.Float64()*5}
		case 1: // wide band
			lo := rng.Float64()*100 - 20
			return Pred{Column: col, Min: lo, Max: lo + rng.Float64()*120}
		case 2: // half-open
			return Pred{Column: col, Min: rng.Float64() * 100, Max: math.Inf(1)}
		case 3: // NaN bound = unbounded on that side
			return Pred{Column: col, Min: math.NaN(), Max: rng.Float64() * 100}
		default: // empty (inverted): matches only NaN rows
			return Pred{Column: col, Min: 60, Max: 40}
		}
	}
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3000)
		if trial == 0 {
			n = 0
		}
		xs, ys := randomPoints(rng, n)
		// Two attribute columns: a correlates with position (so zone
		// maps actually prune), b is independent noise.
		as := make([]float64, n)
		bs := make([]float64, n)
		for i := 0; i < n; i++ {
			as[i] = (xs[i]+ys[i])/2 + rng.NormFloat64()*3
			bs[i] = rng.Float64() * 100
		}
		// Dirty rows in every column on some trials.
		if trial%3 == 1 && n > 0 {
			for i := 0; i < n/40+1; i++ {
				switch j := rng.Intn(n); i % 4 {
				case 0:
					as[j] = math.NaN()
				case 1:
					bs[j] = math.NaN()
				case 2:
					as[j] = math.Inf(1 - 2*(j%2))
				default:
					xs[j] = math.NaN()
				}
			}
		}
		tb, err := NewTable("t", "x", "y", "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.BulkLoad(xs, ys, as, bs); err != nil {
			t.Fatal(err)
		}
		indexed := trial%2 == 0
		if indexed {
			if err := tb.IndexOn("x", "y"); err != nil {
				t.Fatal(err)
			}
		}
		label := "filtered-fallback"
		if indexed {
			label = "filtered-indexed"
		}
		rects := []geom.Rect{
			{}, // no viewport: pure attribute filtering over the grid
			{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9},
			{MinX: 20, MinY: 20, MaxX: 70, MaxY: 70},
			{MinX: math.NaN(), MinY: 10, MaxX: 90, MaxY: math.NaN()},
		}
		for q := 0; q < 6; q++ {
			rects = append(rects, geom.NewRect(
				geom.Pt(rng.Float64()*120-10, rng.Float64()*120-10),
				geom.Pt(rng.Float64()*120-10, rng.Float64()*120-10),
			))
		}
		predSets := [][]Pred{
			nil,
			{randPred("a", n)},
			{randPred("a", n), randPred("b", n)},
			{randPred("a", n), randPred("b", n), randPred("x", n)},
			{{Column: "a", Min: math.NaN(), Max: math.NaN()}}, // fully unbounded
		}
		for _, r := range rects {
			for _, preds := range predSets {
				assertFilteredEquiv(t, tb, r, preds, label)
			}
		}
		// Appended tails are unindexed and must take the full-predicate
		// linear tail path.
		if indexed && n > 0 {
			for i := 0; i < 40; i++ {
				v := rng.Float64()*150 - 25
				if err := appendRow(tb, v, rng.Float64()*150-25, v+rng.NormFloat64(), rng.Float64()*100); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range rects {
				for _, preds := range predSets {
					assertFilteredEquiv(t, tb, r, preds, label+"+appended-tail")
				}
			}
		}
		// Unknown filter column errors.
		if _, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{{MaxX: 1, MaxY: 1}}, []Pred{{Column: "zzz"}}); err == nil {
			t.Fatal("unknown filter column: want error")
		}
	}
}

// TestZoneMapsPrune pins that zone maps actually prune: on a spatially
// correlated column, a selective filter must discard most touched cells
// without reading their rows, and the stats must say so.
func TestZoneMapsPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 60_000
	xs := make([]float64, n)
	ys := make([]float64, n)
	ms := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = rng.Float64() * 100
		ms[i] = xs[i] + ys[i] // perfectly correlated with position
	}
	tb, _ := NewTable("t", "x", "y", "m")
	if err := tb.BulkLoad(xs, ys, ms); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	// m in [0, 50] selects the lower-left triangle; cells in the upper
	// right half must be pruned without a row test.
	rows, st, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}}, []Pred{{Column: "m", Min: 0, Max: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.IndexProbe {
		t.Fatal("expected an index probe")
	}
	if st.CellsPruned == 0 || st.CellsPruned < st.CellsTouched/4 {
		t.Errorf("zone maps pruned %d of %d cells, want at least a quarter", st.CellsPruned, st.CellsTouched)
	}
	if st.CellsBulk == 0 {
		t.Errorf("no cell was bulk-emitted; deep-interior cells with m-range inside [0,50] should be")
	}
	if rows.IsEmpty() {
		t.Fatal("filter matched nothing")
	}
	// The same call without an index agrees (sanity anchor for the ratio).
	tb2, _ := NewTable("t2", "x", "y", "m")
	if err := tb2.BulkLoad(xs, ys, ms); err != nil {
		t.Fatal(err)
	}
	want, _, err := tb2.View().ScanRects(context.Background(), "x", "y", []geom.Rect{{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}}, []Pred{{Column: "m", Min: 0, Max: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != want.Len() {
		t.Fatalf("indexed %d rows, fallback %d", rows.Len(), want.Len())
	}
}

// TestAllRowsConventionWithAppendedTail is the regression test for the
// Scan/ScanRect "all rows" agreement: with rows appended after the index
// build, Scan with an empty predicate list and ScanRect with the zero
// Rect must BOTH answer with the dense all-rows range — tail included —
// rather than one taking the indexed path (which would return ids and,
// before the fix, read the zero Rect as a point query at the origin).
func TestAllRowsConventionWithAppendedTail(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	if err := tb.BulkLoad([]float64{0, 1, 2}, []float64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	// Tail rows deliberately outside the indexed extent, plus one NaN.
	if err := appendRow(tb, 500, -500); err != nil {
		t.Fatal(err)
	}
	if err := appendRow(tb, math.NaN(), 3); err != nil {
		t.Fatal(err)
	}
	scan, err := tb.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	rect, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string]RowSet{"Scan(empty)": scan, "ScanRect(zero)": rect} {
		start, end, ok := rows.AsRange()
		if !ok || start != 0 || end != 5 {
			t.Errorf("%s = range[%d,%d) ok=%v, want the dense all-rows range [0,5) incl. the appended tail", name, start, end, ok)
		}
	}
	// The filtered spelling agrees too: zero Rect + no preds from
	// ScanRectWhere is the same fast path.
	where, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if start, end, ok := where.AsRange(); !ok || start != 0 || end != 5 {
		t.Errorf("ScanRectWhere(zero, nil) = range[%d,%d) ok=%v, want [0,5)", start, end, ok)
	}
}

func TestScanRectFullExtentIsDenseRange(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	xs, ys := randomPoints(rand.New(rand.NewSource(3)), 1000)
	if err := tb.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	b, err := tb.Bounds("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if start, end, ok := rows.AsRange(); !ok || start != 0 || end != 1000 {
		t.Errorf("extent probe = range[%d,%d) ok=%v, want dense [0,1000)", start, end, ok)
	}
}

// TestIndexOnRebuildAbsorbsAppends: re-calling IndexOn after appends
// rebuilds the index over the full table, restoring the dense-range
// full-extent answer (appended rows are otherwise a linear tail).
func TestIndexOnRebuildAbsorbsAppends(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	if err := tb.BulkLoad([]float64{0, 1, 2}, []float64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 10; i++ {
		if err := appendRow(tb, float64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	big := geom.Rect{MinX: -1, MinY: -1, MaxX: 100, MaxY: 100}
	rows, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{big}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-rebuild the probe walks cells plus the appended tail; the
	// result happens to be the contiguous run [0, 10), which the
	// representation chooser collapses to a dense range.
	if rows.Len() != 10 {
		t.Fatalf("pre-rebuild probe found %d rows, want 10", rows.Len())
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	rows, _, err = tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{big}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if start, end, ok := rows.AsRange(); !ok || start != 0 || end != 10 {
		t.Errorf("post-rebuild probe = range[%d,%d) ok=%v, want dense [0,10)", start, end, ok)
	}
}

// TestScanRectNonFiniteCoordinates: NaN matches every range predicate in
// the linear scan and ±Inf defeats cell binning, so such rows are kept
// out of the grid (the index still serves the finite bulk) and filtered
// per probe; ScanRect must keep agreeing with Scan row for row.
func TestScanRectNonFiniteCoordinates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tb, _ := NewTable("t", "x", "y")
	if err := tb.BulkLoad(
		[]float64{0, 1, nan, 2, inf, 3},
		[]float64{0, 1, 2, nan, 3, -inf},
	); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []geom.Rect{
		{MinX: 0.5, MinY: 0.5, MaxX: 2.5, MaxY: 2.5},
		{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10},
		{},
	} {
		assertScanRectEquiv(t, tb, r, "non-finite")
	}
	// The NaN rows must be present in both paths (NaN compares false
	// against every bound, so range predicates never exclude it), and
	// dirty rows must not cost the finite bulk its index: the probe
	// counter, not the fallback counter, moves.
	rows, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{{MinX: 0.5, MinY: 0.5, MaxX: 2.5, MaxY: 2.5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ids := rows.Indices(); len(ids) != 3 { // rows 1 (in rect), 2 and 3 (NaN)
		t.Errorf("non-finite viewport rows = %v, want [1 2 3]", ids)
	}
	if probes := tb.counters.indexProbes.Load(); probes == 0 {
		t.Error("dirty rows disabled the index entirely; want index probes with extras filtering")
	}

	// An all-non-finite table has nothing to bin: the pair stays
	// unindexed and ScanRect falls back.
	bad, _ := NewTable("bad", "x", "y")
	if err := bad.BulkLoad([]float64{nan, inf}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := bad.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	assertScanRectEquiv(t, bad, geom.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}, "all-non-finite")
	if fallbacks := bad.counters.scanFallbacks.Load(); fallbacks == 0 {
		t.Error("all-non-finite table should scan via the fallback")
	}
}

// TestBoundsUnchangedByIndexing: Bounds must report the same extent
// whether it walks the columns or answers from the index — including
// ±Inf coordinates, which the index keeps out of its own extent.
func TestBoundsUnchangedByIndexing(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	if err := tb.BulkLoad(
		[]float64{0, 1, math.Inf(1)},
		[]float64{0, 1, 5},
	); err != nil {
		t.Fatal(err)
	}
	before, err := tb.Bounds("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	after, err := tb.Bounds("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("Bounds changed across IndexOn: %v -> %v", before, after)
	}
	if !math.IsInf(after.MaxX, 1) || after.MaxY != 5 {
		t.Errorf("bounds = %v, want the Inf row folded in", after)
	}
}

func TestScanRectUnknownColumn(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	if _, _, err := tb.View().ScanRects(context.Background(), "x", "zzz", []geom.Rect{{MaxX: 1, MaxY: 1}}, nil); err == nil {
		t.Error("unknown column: want error")
	}
}

// TestFullExtentProjectionAllocations locks down the zero-allocation
// fast path: projecting every row through the All sentinel allocates
// only the output slice — no row ids are ever materialized.
func TestFullExtentProjectionAllocations(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	xs, ys := randomPoints(rand.New(rand.NewSource(5)), 10_000)
	if err := tb.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	v := tb.View()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := v.Points("x", "y", All); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("full-extent Points allocated %.0f objects per run, want 1 (the output slice)", allocs)
	}
}

func TestIndexStats(t *testing.T) {
	s := New()
	tb, err := s.CreateTable("base", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoad([]float64{1, 2, 3}, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexStats(); got.Indexes != 0 || got.IndexedTables != 0 {
		t.Errorf("pre-index stats = %+v", got)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	probe := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if _, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{probe}, nil); err != nil {
		t.Fatal(err)
	}
	// An unindexed pair falls back and is counted as such.
	if _, _, err := tb.View().ScanRects(context.Background(), "y", "x", []geom.Rect{probe}, nil); err != nil {
		t.Fatal(err)
	}
	got := s.IndexStats()
	if got.IndexedTables != 1 || got.Indexes != 1 || got.IndexedRows != 3 {
		t.Errorf("stats = %+v", got)
	}
	if got.Probes != 1 || got.Fallbacks != 1 {
		t.Errorf("probes=%d fallbacks=%d, want 1 and 1", got.Probes, got.Fallbacks)
	}
	// Replacing the table must not decrease the usage totals: they are
	// exported as Prometheus counters, and sample rebuilds and snapshot
	// loads replace tables routinely.
	fresh, err := NewTable("base", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PublishCatalog([]*Table{fresh}, nil); err != nil {
		t.Fatal(err)
	}
	got = s.IndexStats()
	if got.Probes != 1 || got.Fallbacks != 1 {
		t.Errorf("post-replace probes=%d fallbacks=%d, want counters to survive the replacement", got.Probes, got.Fallbacks)
	}
}
