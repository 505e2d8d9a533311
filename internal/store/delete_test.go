package store

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestDeleteWhereBasics(t *testing.T) {
	tb, err := NewTable("t", "x", "y", "m")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := appendRow(tb, float64(i), float64(i), float64(i%10)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tb.DeleteWhere([]Pred{{Column: "m", Min: 3, Max: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("deleted %d rows, want 20", n)
	}
	if tb.NumRows() != 100 {
		t.Errorf("NumRows = %d, want 100 (tombstones are logical)", tb.NumRows())
	}
	if tb.LiveRows() != 80 {
		t.Errorf("LiveRows = %d, want 80", tb.LiveRows())
	}
	rs, err := tb.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 80 {
		t.Errorf("Scan(nil) = %d rows, want 80", rs.Len())
	}
	m, _ := tb.Column("m")
	rs.ForEach(func(r int) {
		if m[r] >= 3 && m[r] <= 4 {
			t.Fatalf("row %d (m=%g) survived its delete", r, m[r])
		}
	})
	// Tombstoning the same rows again is a no-op.
	if n, err = tb.DeleteWhere([]Pred{{Column: "m", Min: 3, Max: 4}}); err != nil || n != 0 {
		t.Errorf("repeat delete = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := tb.DeleteWhere([]Pred{{Column: "ghost", Min: 0, Max: 1}}); err == nil {
		t.Error("unknown column: want error")
	}
	// Empty predicate list deletes every surviving row.
	if n, err = tb.DeleteWhere(nil); err != nil || n != 80 {
		t.Fatalf("delete-all = (%d, %v), want (80, nil)", n, err)
	}
	if tb.LiveRows() != 0 {
		t.Errorf("LiveRows after delete-all = %d", tb.LiveRows())
	}
	if rs, _ := tb.Scan(nil); !rs.IsEmpty() {
		t.Errorf("Scan after delete-all returned %d rows", rs.Len())
	}
	if b, err := tb.Bounds("x", "y"); err != nil || !b.IsEmpty() {
		t.Errorf("Bounds over fully deleted table = %v, %v; want empty", b, err)
	}
}

func TestDeleteRect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs, ys := randomPoints(rng, 5000)
	tb, _ := NewTable("t", "x", "y")
	if err := tb.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	r := geom.Rect{MinX: 20, MinY: 20, MaxX: 60, MaxY: 60}
	want := 0
	for i := range xs {
		if !(xs[i] < r.MinX || xs[i] > r.MaxX || ys[i] < r.MinY || ys[i] > r.MaxY) {
			want++
		}
	}
	n, err := tb.DeleteWhere(rectPreds(r))
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("rectangle delete removed %d rows, brute force says %d", n, want)
	}
	// The index probe and the linear scan agree on the survivors.
	for _, probe := range []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		{MinX: 10, MinY: 10, MaxX: 40, MaxY: 40},
		{},
	} {
		assertScanRectEquiv(t, tb, probe, "after rectangle delete")
	}
	rs, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.IsEmpty() {
		t.Errorf("deleted rectangle still returns %d rows", rs.Len())
	}
	if _, err := tb.DeleteWhere([]Pred{{Column: "ghost", Min: 0, Max: 1}}); err == nil {
		t.Error("unknown column: want error")
	}
	// An unbounded rectangle deletes every live row.
	live := tb.LiveRows()
	if n, err = tb.DeleteWhere(rectPreds(unboundedRect)); err != nil || n != live {
		t.Errorf("unbounded delete = (%d, %v), want (%d, nil)", n, err, live)
	}
}

func TestDeleteExcludedFromPointsAndGather(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	for i := 0; i < 10; i++ {
		appendRow(tb, float64(i), float64(10+i))
	}
	if _, err := tb.DeleteWhere([]Pred{{Column: "x", Min: 3, Max: 5}}); err != nil {
		t.Fatal(err)
	}
	pts, err := tb.Points("x", "y", All)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("Points(All) = %d points, want 7", len(pts))
	}
	for _, p := range pts {
		if p.X >= 3 && p.X <= 5 {
			t.Errorf("deleted point %v served", p)
		}
	}
	vals, err := tb.Gather("y", All)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 7 {
		t.Fatalf("Gather(All) = %d values, want 7", len(vals))
	}
	// An explicit row set is filtered too (Points after a racing delete).
	pts, err = tb.Points("x", "y", RowRange(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Errorf("Points(RowRange) = %d points, want 7", len(pts))
	}
	// Bounds shrink to the survivors.
	if _, err := tb.DeleteWhere([]Pred{{Column: "x", Min: 8, Max: math.Inf(1)}}); err != nil {
		t.Fatal(err)
	}
	b, err := tb.Bounds("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxX != 7 || b.MinX != 0 {
		t.Errorf("Bounds after delete = %v, want x in [0,7]", b)
	}
}

func TestDeleteNaNRows(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	appendRow(tb, nan(), 1)
	appendRow(tb, 1, nan())
	appendRow(tb, math.Inf(1), 2)
	// NaN values match every range predicate, so a bounded delete on x
	// takes the NaN-x row; the Inf row is outside [0, 2].
	n, err := tb.DeleteWhere([]Pred{{Column: "x", Min: 0, Max: 2}})
	if err != nil || n != 2 {
		t.Fatalf("delete = (%d, %v), want (2, nil)", n, err)
	}
	if tb.LiveRows() != 1 {
		t.Errorf("LiveRows = %d, want 1 (the +Inf row)", tb.LiveRows())
	}
	vals, _ := tb.Gather("x", All)
	if len(vals) != 1 || !math.IsInf(vals[0], 1) {
		t.Errorf("survivor = %v, want [+Inf]", vals)
	}
}

// TestCompactReclaimEquivalence pins the tentpole invariant: after a
// reclaiming compaction, the table is indistinguishable from a fresh
// build over just the survivors — same values in the same order, same
// scan results, and the physical row count has shrunk to the live one.
func TestCompactReclaimEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 20_000
	xs, ys := randomPoints(rng, n)
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = float64(i % 100)
	}

	tb, _ := NewTable("t", "x", "y", "m")
	if err := tb.BulkLoad(xs, ys, ms); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	deleted, err := tb.DeleteWhere([]Pred{{Column: "m", Min: 0, Max: 29}})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: build a fresh table over exactly the survivors.
	var sx, sy, sm []float64
	for i := range ms {
		if ms[i] >= 30 {
			sx = append(sx, xs[i])
			sy = append(sy, ys[i])
			sm = append(sm, ms[i])
		}
	}
	ref, _ := NewTable("ref", "x", "y", "m")
	if err := ref.BulkLoad(sx, sy, sm); err != nil {
		t.Fatal(err)
	}
	if err := ref.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}

	// Appends after the delete must survive the reclaim.
	if err := tb.AppendRows([]float64{-1, -2}, []float64{-1, -2}, []float64{50, 51}); err != nil {
		t.Fatal(err)
	}
	ref.AppendRows([]float64{-1, -2}, []float64{-1, -2}, []float64{50, 51})

	tb.Compact()
	if tb.NumRows() != n-deleted+2 {
		t.Fatalf("NumRows after reclaim = %d, want %d", tb.NumRows(), n-deleted+2)
	}
	if tb.NumRows() != tb.LiveRows() {
		t.Errorf("NumRows %d != LiveRows %d after reclaim", tb.NumRows(), tb.LiveRows())
	}
	if got := tb.counters.reclaimedRows.Load(); got != int64(deleted) {
		t.Errorf("reclaimedRows counter = %d, want %d", got, deleted)
	}
	if got := tb.counters.deletedRows.Load(); got != int64(deleted) {
		t.Errorf("deletedRows counter = %d, want %d", got, deleted)
	}

	// Column-for-column identical to the fresh build (reclaim preserves
	// survivor order).
	for _, col := range []string{"x", "y", "m"} {
		got, _ := tb.Column(col)
		want, _ := ref.Column(col)
		if len(got) != len(want) {
			t.Fatalf("column %q: %d rows vs reference %d", col, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("column %q row %d: %g vs reference %g", col, i, got[i], want[i])
			}
		}
	}

	// Probes agree with the fresh build, values and order.
	for i := 0; i < 20; i++ {
		lo := rng.Float64() * 80
		r := geom.Rect{MinX: lo, MinY: lo, MaxX: lo + 25, MaxY: lo + 25}
		preds := []Pred{{Column: "m", Min: 30, Max: 70}}
		gotRS, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
		if err != nil {
			t.Fatal(err)
		}
		wantRS, _, err := ref.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := tb.Points("x", "y", gotRS)
		want, _ := ref.Points("x", "y", wantRS)
		if len(got) != len(want) {
			t.Fatalf("probe %v: %d points vs reference %d", r, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("probe %v point %d: %v vs reference %v", r, j, got[j], want[j])
			}
		}
	}
}

func TestScanRectsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	xs, ys := randomPoints(rng, 10_000)
	tb, _ := NewTable("t", "x", "y")
	if err := tb.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}

	assertUnion := func(rects []geom.Rect, preds []Pred, label string) {
		t.Helper()
		got, stats, err := tb.View().ScanRects(context.Background(), "x", "y", rects, preds)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := RowSet{}
		for _, r := range rects {
			rs, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
			if err != nil {
				t.Fatalf("%s: single-rect probe: %v", label, err)
			}
			want = want.Union(rs)
		}
		g, w := got.Indices(), want.Indices()
		if len(g) != len(w) {
			t.Fatalf("%s: union %d rows, per-rect union %d", label, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: row %d: %d vs %d", label, i, g[i], w[i])
			}
			if i > 0 && g[i] <= g[i-1] {
				t.Fatalf("%s: union not strictly ascending at %d", label, i)
			}
		}
		if !stats.IndexProbe {
			t.Errorf("%s: union lost the index-probe flag", label)
		}
	}

	disjoint := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30},
		{MinX: 60, MinY: 60, MaxX: 100, MaxY: 100},
	}
	assertUnion(disjoint, nil, "disjoint")
	overlapping := []geom.Rect{
		{MinX: 10, MinY: 10, MaxX: 50, MaxY: 50},
		{MinX: 30, MinY: 30, MaxX: 70, MaxY: 70},
	}
	assertUnion(overlapping, nil, "overlapping")
	assertUnion(overlapping, []Pred{{Column: "x", Min: 20, Max: 60}}, "overlapping+filter")

	// Disjoint-union row count is the sum of the parts.
	rs1, _, _ := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{disjoint[0]}, nil)
	rs2, _, _ := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{disjoint[1]}, nil)
	u, _, err := tb.View().ScanRects(context.Background(), "x", "y", disjoint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != rs1.Len()+rs2.Len() {
		t.Errorf("disjoint union = %d rows, want %d + %d", u.Len(), rs1.Len(), rs2.Len())
	}

	// Deletes apply inside every rectangle of the union.
	if _, err := tb.DeleteWhere(rectPreds(disjoint[0])); err != nil {
		t.Fatal(err)
	}
	u, _, _ = tb.View().ScanRects(context.Background(), "x", "y", disjoint, nil)
	if u.Len() != rs2.Len() {
		t.Errorf("union after deleting rect 0 = %d rows, want %d", u.Len(), rs2.Len())
	}

	// No rectangles means the full extent.
	all, _, err := tb.View().ScanRects(context.Background(), "x", "y", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != tb.LiveRows() {
		t.Errorf("empty rects = %d rows, want all %d live", all.Len(), tb.LiveRows())
	}
	if _, _, err := tb.View().ScanRects(context.Background(), "x", "ghost", disjoint, nil); err == nil {
		t.Error("unknown column: want error")
	}
}

// TestRowSetSubtract pins the tombstone refine pass, subtractBitmap,
// against a brute-force difference over every RowSet representation.
func TestRowSetSubtract(t *testing.T) {
	mk := func(ids ...int) RowSet { return rowSetFromSorted(ids) }
	brute := func(s, d RowSet) []int {
		var out []int
		s.ForEach(func(r int) {
			if !d.Contains(r) {
				out = append(out, r)
			}
		})
		return out
	}
	check := func(s, d RowSet, label string) {
		t.Helper()
		got := s.subtractBitmap(bitmapFromSorted(d.Indices())).Indices()
		want := brute(s, d)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d: %d vs %d", label, i, got[i], want[i])
			}
		}
	}

	// Sentinels: no dead set leaves s as it is, and an empty s stays
	// empty.
	if got := mk(1, 2, 3).subtractBitmap(nil); got.Len() != 3 {
		t.Errorf("s - nil = %d rows, want 3", got.Len())
	}
	if !All.subtractBitmap(bitmapFromSorted([]int{1})).all {
		t.Error("All - dead should stay All (operators resolve All first)")
	}
	if !(RowSet{}).subtractBitmap(bitmapFromSorted([]int{1})).IsEmpty() {
		t.Error("empty - dead should stay empty")
	}

	check(RowRange(10, 50), RowRange(20, 30), "range minus middle range")
	check(RowRange(10, 50), RowRange(0, 10), "range minus disjoint-left range")
	check(RowRange(10, 50), RowRange(50, 90), "range minus disjoint-right range")
	check(RowRange(10, 50), RowRange(0, 100), "range minus covering range")
	check(mk(1, 5, 9, 64, 65, 200), mk(5, 65), "ids minus ids")
	check(mk(1, 5, 9), mk(100, 200), "ids minus disjoint ids")
	check(RowRange(0, 300), mk(0, 64, 128, 299), "range minus sparse ids")
	check(RowSet{bm: bitmapFromSorted([]int{0, 3, 64, 65, 130}), end: -1}, mk(3, 65, 200), "bitmap minus ids")

	rng := rand.New(rand.NewSource(5))
	randSet := func() RowSet {
		switch rng.Intn(3) {
		case 0:
			lo := rng.Intn(500)
			return RowRange(lo, lo+rng.Intn(500)+1)
		default:
			n := rng.Intn(200)
			seen := map[int]bool{}
			var ids []int
			for len(ids) < n {
				v := rng.Intn(1000)
				if !seen[v] {
					seen[v] = true
					ids = append(ids, v)
				}
			}
			sortInts(ids)
			return rowSetFromSorted(ids)
		}
	}
	for i := 0; i < 200; i++ {
		check(randSet(), randSet(), "random")
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestSnapshotCarriesTombstones(t *testing.T) {
	tb := buildSnapshotTable(t, 2000, 7)
	if _, err := tb.DeleteWhere([]Pred{{Column: "x", Min: 0, Max: 25}}); err != nil {
		t.Fatal(err)
	}
	snap := tb.SnapshotGeneration()
	if len(snap.Dead) == 0 {
		t.Fatal("snapshot of a tombstoned table has no Dead ids")
	}
	for i := 1; i < len(snap.Dead); i++ {
		if snap.Dead[i] <= snap.Dead[i-1] {
			t.Fatal("Dead ids not strictly ascending")
		}
	}
	restored, err := TableFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.LiveRows() != tb.LiveRows() {
		t.Fatalf("restored LiveRows = %d, want %d", restored.LiveRows(), tb.LiveRows())
	}
	gotRS, _ := restored.Scan(nil)
	wantRS, _ := tb.Scan(nil)
	got, _ := restored.Points("x", "y", gotRS)
	want, _ := tb.Points("x", "y", wantRS)
	if len(got) != len(want) {
		t.Fatalf("restored scan = %d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("restored point %d: %v vs %v", i, got[i], want[i])
		}
	}

	// Corrupt Dead lists are rejected, not installed.
	for _, tc := range []struct {
		name string
		dead []int32
	}{
		{"descending", []int32{5, 3}},
		{"duplicate", []int32{5, 5}},
		{"negative", []int32{-1}},
		{"out of range", []int32{int32(snap.NumRows)}},
	} {
		bad := snap
		bad.Dead = tc.dead
		if _, err := TableFromSnapshot(bad); err == nil {
			t.Errorf("%s Dead list: want error", tc.name)
		}
	}

	// A reclaimed table snapshots with no tombstone section at all.
	tb.Compact()
	if snap := tb.SnapshotGeneration(); len(snap.Dead) != 0 {
		t.Errorf("post-reclaim snapshot still carries %d Dead ids", len(snap.Dead))
	}
}

// TestDeleteEquivalenceProperty is the PR's property test: for random
// delete schedules — including NaN/Inf rows — interleaved with appends,
// the tombstoned table answers every probe exactly like a fresh table
// built from only the surviving rows.
func TestDeleteEquivalenceProperty(t *testing.T) {
	matches := func(v float64, p Pred) bool {
		min, max := p.Min, p.Max
		if math.IsNaN(min) {
			min = math.Inf(-1)
		}
		if math.IsNaN(max) {
			max = math.Inf(1)
		}
		return !(v < min || v > max)
	}
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		tb, _ := NewTable("t", "x", "y", "m")

		var xs, ys, ms []float64
		var dead []bool
		appendBatch := func(n int) {
			bx := make([]float64, n)
			by := make([]float64, n)
			bm := make([]float64, n)
			for i := 0; i < n; i++ {
				switch rng.Intn(20) {
				case 0:
					bx[i], by[i] = nan(), rng.Float64()*100
				case 1:
					bx[i], by[i] = math.Inf(1), math.Inf(-1)
				default:
					bx[i], by[i] = rng.Float64()*100, rng.Float64()*100
				}
				bm[i] = float64(rng.Intn(50))
			}
			if err := tb.AppendRows(bx, by, bm); err != nil {
				t.Fatal(err)
			}
			xs = append(xs, bx...)
			ys = append(ys, by...)
			ms = append(ms, bm...)
			dead = append(dead, make([]bool, n)...)
		}

		appendBatch(500 + rng.Intn(500))
		if rng.Intn(2) == 0 {
			if err := tb.IndexOn("x", "y"); err != nil {
				t.Fatal(err)
			}
		}

		// A random schedule of deletes, appends, compactions.
		for step := 0; step < 12; step++ {
			switch rng.Intn(4) {
			case 0:
				appendBatch(rng.Intn(300))
			case 1:
				tb.Compact()
			default:
				var preds []Pred
				for _, c := range []string{"x", "y", "m"} {
					if rng.Intn(2) == 0 {
						continue
					}
					lo := rng.Float64()*100 - 10
					preds = append(preds, Pred{Column: c, Min: lo, Max: lo + rng.Float64()*40})
				}
				if len(preds) == 0 {
					preds = []Pred{{Column: "m", Min: 0, Max: float64(rng.Intn(10))}}
				}
				want := 0
				cols := map[string][]float64{"x": xs, "y": ys, "m": ms}
				for i := range dead {
					if dead[i] {
						continue
					}
					hit := true
					for _, p := range preds {
						if !matches(cols[p.Column][i], p) {
							hit = false
							break
						}
					}
					if hit {
						dead[i] = true
						want++
					}
				}
				got, err := tb.DeleteWhere(preds)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d step %d: deleted %d rows, model says %d", trial, step, got, want)
				}
			}
		}

		// Reference: filter-then-rebuild.
		var sx, sy, sm []float64
		for i := range dead {
			if !dead[i] {
				sx = append(sx, xs[i])
				sy = append(sy, ys[i])
				sm = append(sm, ms[i])
			}
		}
		if tb.LiveRows() != len(sx) {
			t.Fatalf("trial %d: LiveRows = %d, model says %d", trial, tb.LiveRows(), len(sx))
		}
		ref, _ := NewTable("ref", "x", "y", "m")
		if len(sx) > 0 {
			if err := ref.BulkLoad(sx, sy, sm); err != nil {
				t.Fatal(err)
			}
			if err := ref.IndexOn("x", "y"); err != nil {
				t.Fatal(err)
			}
		}

		// delete-then-probe ≡ filter-then-rebuild, by VALUES (survivor
		// order is preserved by both tombstoning and reclaim).
		for probe := 0; probe < 8; probe++ {
			var r geom.Rect
			if probe > 0 {
				lo := rng.Float64() * 80
				r = geom.Rect{MinX: lo, MinY: lo, MaxX: lo + 30, MaxY: lo + 30}
			}
			var preds []Pred
			if probe%2 == 1 {
				preds = []Pred{{Column: "m", Min: 5, Max: 35}}
			}
			gotRS, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tb.Points("x", "y", gotRS)
			if err != nil {
				t.Fatal(err)
			}
			var want []geom.Point
			if len(sx) > 0 {
				wantRS, _, err := ref.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
				if err != nil {
					t.Fatal(err)
				}
				want, err = ref.Points("x", "y", wantRS)
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d probe %d: %d points, reference %d", trial, probe, len(got), len(want))
			}
			for i := range got {
				same := got[i] == want[i] ||
					(math.IsNaN(got[i].X) && math.IsNaN(want[i].X) && got[i].Y == want[i].Y) ||
					(math.IsNaN(got[i].Y) && math.IsNaN(want[i].Y) && got[i].X == want[i].X)
				if !same {
					t.Fatalf("trial %d probe %d point %d: %v vs reference %v", trial, probe, i, got[i], want[i])
				}
			}
		}
	}
}
