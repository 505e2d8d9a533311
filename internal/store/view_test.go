package store

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// viewAnswers is everything a request can read from one View.
type viewAnswers struct {
	Rows     []int
	Points   []geom.Point
	M        []float64
	Nearest  []Neighbor
	Bounds   geom.Rect
	LiveRows int
	NumRows  int
}

var viewRects = []geom.Rect{
	{MinX: 1000, MinY: 0, MaxX: 1999, MaxY: 100},
	{MinX: 4000, MinY: 0, MaxX: 4999, MaxY: 100},
}

func recordView(t *testing.T, v View) viewAnswers {
	t.Helper()
	ctx := context.Background()
	rows, _, err := v.ScanRects(ctx, "x", "y", viewRects, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := v.Points("x", "y", rows)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := v.Gather("m", rows)
	if err != nil {
		t.Fatal(err)
	}
	ns, _, err := v.Nearest(ctx, "x", "y", 1500, 50, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.Bounds("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	return viewAnswers{rows.Indices(), pts, ms, ns, b, v.LiveRows(), v.NumRows()}
}

// TestViewPinsGenerationAcrossWrites: a View taken before an append, a
// delete and a reclaiming compaction (which rewrites the columns and
// shifts every surviving row id) keeps answering the generation it
// pinned — scan, projection, gather, kNN, bounds and counts — and a
// fresh View answers the post-compaction state. The scan-then-project
// sequence below is a request's; read through two generations it
// projects the wrong rows, or fails out of range, once the compaction
// publishes in between.
func TestViewPinsGenerationAcrossWrites(t *testing.T) {
	const n = 5000
	tb, _ := NewTable("t", "x", "y", "m")
	xs, ys, ms := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i], ms[i] = float64(i), float64(i%97), float64(10*i)
	}
	if err := tb.BulkLoad(xs, ys, ms); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}

	v := tb.View()
	before := recordView(t, v)
	// The scan half of a request, on the pinned view, before the writes.
	scanned, _, err := v.ScanRects(context.Background(), "x", "y", viewRects[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.LiveRows != n || len(before.Rows) != 2000 || before.Points[0] != geom.Pt(1000, float64(1000%97)) {
		t.Fatalf("pre-write answers wrong: live %d, %d rows, first point %v", before.LiveRows, len(before.Rows), before.Points[0])
	}

	app := [][]float64{{4500.5, 4999.5, 6000}, {50, 1, 7}, {-1, -2, -3}}
	if err := tb.AppendRows(app...); err != nil {
		t.Fatal(err)
	}
	if del, err := tb.DeleteWhere([]Pred{{Column: "x", Min: math.Inf(-1), Max: 2999.5}}); err != nil || del != 3000 {
		t.Fatalf("DeleteWhere = %d, %v; want 3000", del, err)
	}
	tb.Compact()
	if d := tb.snapshot(); d.n != n-3000+3 || d.dead != nil || d.loadGen == v.d.loadGen {
		t.Fatalf("compaction did not reclaim: n=%d dead=%v", d.n, d.dead)
	}

	// The projection half of the request, after the writes published.
	pts, err := v.Points("x", "y", scanned)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, before.Points[:1000]) {
		t.Fatalf("pinned Points drifted: first point %v, want %v", pts[0], before.Points[0])
	}
	if after := recordView(t, v); !reflect.DeepEqual(after, before) {
		t.Fatalf("pinned view drifted across writes:\n before %+v\n after  %+v", before, after)
	}

	// A fresh view answers the post-compaction state, checked against a
	// naive model of the surviving and appended rows.
	type row struct{ x, y, m float64 }
	var model []row
	for i := 3000; i < n; i++ {
		model = append(model, row{xs[i], ys[i], ms[i]})
	}
	for i := range app[0] {
		model = append(model, row{app[0][i], app[1][i], app[2][i]})
	}
	var want viewAnswers
	want.Bounds = geom.EmptyRect()
	for id, r := range model {
		p := geom.Pt(r.x, r.y)
		want.Bounds = want.Bounds.UnionPoint(p)
		for _, rc := range viewRects {
			if rc.Contains(p) {
				want.Rows = append(want.Rows, id)
				want.Points = append(want.Points, p)
				want.M = append(want.M, r.m)
				break
			}
		}
	}
	want.LiveRows, want.NumRows = len(model), len(model)
	want.Nearest = bruteNearest(tb, 1500, 50, 5, nil)
	got := recordView(t, tb.View())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh view:\n got  %+v\n want %+v", got, want)
	}
	if got.Nearest[0].X != 3000 {
		t.Fatalf("fresh nearest = %+v, want the lowest survivor first", got.Nearest[0])
	}
}
