package store

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/geom"
)

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", "x"); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := NewTable("t"); err == nil {
		t.Error("no columns: want error")
	}
	if _, err := NewTable("t", "x", "x"); err == nil {
		t.Error("duplicate column: want error")
	}
	if _, err := NewTable("t", "x", ""); err == nil {
		t.Error("empty column name: want error")
	}
}

func TestAppendAndColumn(t *testing.T) {
	tb, err := NewTable("pts", "x", "y", "alt")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(4, 5, 6); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(1, 2); err == nil {
		t.Error("wrong arity: want error")
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	alt, err := tb.Column("alt")
	if err != nil {
		t.Fatal(err)
	}
	if alt[0] != 3 || alt[1] != 6 {
		t.Errorf("alt = %v", alt)
	}
	if _, err := tb.Column("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing column error = %v", err)
	}
	cols := tb.Columns()
	if len(cols) != 3 || cols[0] != "x" || cols[2] != "alt" {
		t.Errorf("Columns = %v", cols)
	}
}

func TestBulkLoad(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	if err := tb.BulkLoad([]float64{1, 2, 3}, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if err := tb.BulkLoad([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("ragged columns: want error")
	}
	if err := tb.BulkLoad([]float64{1}); err == nil {
		t.Error("wrong column count: want error")
	}
	// BulkLoad replaces contents.
	if err := tb.BulkLoad([]float64{9}, []float64{9}); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Errorf("NumRows after reload = %d", tb.NumRows())
	}
}

func TestScanPredicates(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	if err := tb.BulkLoad(
		[]float64{0, 1, 2, 3, 4, 5},
		[]float64{5, 4, 3, 2, 1, 0},
	); err != nil {
		t.Fatal(err)
	}
	rows, err := tb.Scan([]Pred{{Column: "x", Min: 1, Max: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ids := rows.Indices(); len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("rows = %v", ids)
	}
	// Conjunction.
	rows, err = tb.Scan([]Pred{
		{Column: "x", Min: 1, Max: 4},
		{Column: "y", Min: 2, Max: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids := rows.Indices(); len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Errorf("conjunction rows = %v", ids)
	}
	// No predicates = all rows, as a dense range (no ids materialized).
	rows, err = tb.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 6 {
		t.Errorf("all rows = %v", rows.Indices())
	}
	if start, end, ok := rows.AsRange(); !ok || start != 0 || end != 6 {
		t.Errorf("predicate-free scan = range [%d,%d) ok=%v, want dense [0,6)", start, end, ok)
	}
	// No matches is the empty RowSet, and the empty RowSet projects to
	// nothing (the old nil-means-all-rows ambiguity is gone).
	rows, err = tb.Scan([]Pred{{Column: "x", Min: 100, Max: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.IsEmpty() {
		t.Errorf("no-match scan = %v, want empty", rows.Indices())
	}
	pts, err := tb.Points("x", "y", rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 0 {
		t.Errorf("no-match projection returned %d points", len(pts))
	}
	if _, err := tb.Scan([]Pred{{Column: "zzz"}}); err == nil {
		t.Error("bad predicate column: want error")
	}
}

func TestPointsAndGather(t *testing.T) {
	tb, _ := NewTable("t", "x", "y", "v")
	if err := tb.BulkLoad([]float64{1, 2}, []float64{3, 4}, []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	pts, err := tb.Points("x", "y", All)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || !pts[1].Equal(geom.Pt(2, 4)) {
		t.Errorf("pts = %v", pts)
	}
	pts, err = tb.Points("x", "y", RowIndices([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || !pts[0].Equal(geom.Pt(2, 4)) {
		t.Errorf("subset pts = %v", pts)
	}
	if _, err := tb.Points("x", "y", RowIndices([]int{5})); err == nil {
		t.Error("row out of range: want error")
	}
	if _, err := tb.Points("x", "y", RowRange(0, 3)); err == nil {
		t.Error("dense range past the end: want error")
	}
	// RowIndices sorts, so Gather returns values in row order.
	vals, err := tb.Gather("v", RowIndices([]int{1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 10 || vals[1] != 20 {
		t.Errorf("gather = %v", vals)
	}
	if _, err := tb.Gather("v", RowIndices([]int{-1})); err == nil {
		t.Error("negative row: want error")
	}
	vals, err = tb.Gather("v", RowRange(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 20 {
		t.Errorf("dense gather = %v", vals)
	}
}

func TestStoreCatalog(t *testing.T) {
	s := New()
	if _, err := s.CreateTable("base", "x", "y"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("base", "x"); err == nil {
		t.Error("duplicate table: want error")
	}
	if _, err := s.Table("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing table error = %v", err)
	}
	for _, name := range []string{"s1", "s2", "s3"} {
		if _, err := s.CreateTable(name, "x", "y"); err != nil {
			t.Fatal(err)
		}
	}
	// Register out of size order; SamplesOf must sort ascending.
	for _, m := range []SampleMeta{
		{Table: "s2", Source: "base", Method: "vas", XCol: "x", YCol: "y", Size: 1000},
		{Table: "s1", Source: "base", Method: "vas", XCol: "x", YCol: "y", Size: 10},
		{Table: "s3", Source: "base", Method: "vas", XCol: "x", YCol: "y", Size: 100000},
	} {
		if err := s.RegisterSample(m); err != nil {
			t.Fatal(err)
		}
	}
	metas := s.SamplesOf("base")
	if len(metas) != 3 || metas[0].Size != 10 || metas[2].Size != 100000 {
		t.Errorf("SamplesOf = %+v", metas)
	}
	// Registration validation.
	if err := s.RegisterSample(SampleMeta{Table: "ghost", Source: "base", Size: 5}); err == nil {
		t.Error("missing sample table: want error")
	}
	if err := s.RegisterSample(SampleMeta{Table: "s1", Source: "ghost", Size: 5}); err == nil {
		t.Error("missing source: want error")
	}
	if err := s.RegisterSample(SampleMeta{Table: "s1", Source: "base", Size: 0}); err == nil {
		t.Error("zero size: want error")
	}
	names := s.TableNames()
	if len(names) != 4 || names[0] != "base" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestPublishSampleReplacesAtomically(t *testing.T) {
	s := New()
	base, _ := s.CreateTable("base", "x", "y")
	if err := base.BulkLoad([]float64{0, 10}, []float64{0, 10}); err != nil {
		t.Fatal(err)
	}
	meta := SampleMeta{Table: "s", Source: "base", Method: "vas", XCol: "x", YCol: "y", Size: 1}
	t1, _ := NewTable("s", "x", "y")
	t1.BulkLoad([]float64{1}, []float64{1})
	if err := s.PublishSample(t1, meta); err != nil {
		t.Fatal(err)
	}
	// Replace with a differently-shaped table under the same name: one
	// catalog entry, the new table served.
	t2, _ := NewTable("s", "x", "y", "density")
	t2.BulkLoad([]float64{2, 3}, []float64{2, 3}, []float64{1, 1})
	meta.Size = 2
	meta.HasDensity = true
	if err := s.PublishSample(t2, meta); err != nil {
		t.Fatal(err)
	}
	metas := s.SamplesOf("base")
	if len(metas) != 1 || metas[0].Size != 2 || !metas[0].HasDensity {
		t.Fatalf("catalog after replace = %+v", metas)
	}
	if got, _ := s.Table("s"); got != t2 {
		t.Error("lookup does not serve the replacement table")
	}
	// Validation.
	if err := s.PublishSample(nil, meta); err == nil {
		t.Error("nil table: want error")
	}
	if err := s.PublishSample(t2, SampleMeta{Table: "other", Source: "base", Size: 2}); err == nil {
		t.Error("name mismatch: want error")
	}
	if err := s.PublishSample(t2, SampleMeta{Table: "s", Source: "ghost", Size: 2}); err == nil {
		t.Error("missing source: want error")
	}
	if err := s.PublishSample(t2, meta); err == nil {
		t.Error("re-publishing the already-registered table: want error")
	}
	if err := s.PublishSample(t1, SampleMeta{Table: "s", Source: "base", Size: 0}); err == nil {
		t.Error("non-positive size: want error")
	}
}

func TestBounds(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	if b, err := tb.Bounds("x", "y"); err != nil || !b.IsEmpty() {
		t.Errorf("empty table bounds = %v, err %v", b, err)
	}
	tb.BulkLoad([]float64{-2, 5, 1}, []float64{7, -3, 0})
	b, err := tb.Bounds("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	want := geom.Rect{MinX: -2, MinY: -3, MaxX: 5, MaxY: 7}
	if b != want {
		t.Errorf("bounds = %v, want %v", b, want)
	}
	if _, err := tb.Bounds("x", "zzz"); err == nil {
		t.Error("unknown column: want error")
	}
}

// TestTableScanVsBulkLoadRace locks down the snapshot semantics: scans
// racing reloads must observe either the old contents or the new, never a
// mix. Run with -race.
func TestTableScanVsBulkLoadRace(t *testing.T) {
	tb, _ := NewTable("t", "x", "y")
	load := func(v float64, n int) {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = v
			ys[i] = v
		}
		if err := tb.BulkLoad(xs, ys); err != nil {
			t.Error(err)
		}
	}
	load(1, 500)

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() { // writer: alternate between two generations of data
		defer close(writerDone)
		for gen := 0; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			if gen%2 == 0 {
				load(2, 300) // shrink
			} else {
				load(1, 500) // grow back
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() { // readers: every snapshot must be internally consistent
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				pts, err := tb.Points("x", "y", All)
				if err != nil {
					t.Error(err)
					return
				}
				if len(pts) != 300 && len(pts) != 500 {
					t.Errorf("torn read: %d points", len(pts))
					return
				}
				want := 1.0
				if len(pts) == 300 {
					want = 2.0
				}
				for _, p := range pts {
					if p.X != want || p.Y != want {
						t.Errorf("torn read: point %v in a %d-row generation", p, len(pts))
						return
					}
				}
				rows, err := tb.Scan([]Pred{{Column: "x", Min: 0, Max: 10}})
				if err != nil {
					t.Error(err)
					return
				}
				if rows.Len() != 300 && rows.Len() != 500 {
					t.Errorf("torn scan: %d rows", rows.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
}

func TestStoreConcurrentReads(t *testing.T) {
	s := New()
	tb, _ := s.CreateTable("base", "x", "y")
	tb.BulkLoad([]float64{1, 2, 3}, []float64{4, 5, 6})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := s.Table("base"); err != nil {
					t.Error(err)
					return
				}
				s.TableNames()
				s.SamplesOf("base")
			}
		}()
	}
	wg.Wait()
}
