package store

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
)

// buildSnapshotTable makes a 3-column indexed table with NaN rows (the
// extras path) and an appended unindexed tail.
func buildSnapshotTable(t *testing.T, n int, seed int64) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb, err := NewTable("snaptest", "x", "y", "v")
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	vs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
		ys[i] = rng.NormFloat64() * 10
		vs[i] = rng.Float64() * 100
		if i%97 == 0 {
			xs[i] = math.NaN() // extras path
		}
		if i%131 == 0 {
			vs[i] = math.NaN() // zone-map NaN flags
		}
	}
	if err := tb.BulkLoad(xs, ys, vs); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	// Appended tail: rows past the index's coverage.
	for i := 0; i < 17; i++ {
		if err := tb.Append(rng.NormFloat64()*10, rng.NormFloat64()*10, rng.Float64()*100); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestTableSnapshotRoundTrip(t *testing.T) {
	orig := buildSnapshotTable(t, 5000, 1)
	snap := orig.SnapshotGeneration()
	if snap.NumRows != orig.NumRows() {
		t.Fatalf("snapshot rows %d != table rows %d", snap.NumRows, orig.NumRows())
	}
	if len(snap.Indexes) != 1 {
		t.Fatalf("expected 1 index, got %d", len(snap.Indexes))
	}
	if snap.Indexes[0].NumRows >= snap.NumRows {
		t.Fatal("appended tail was absorbed into the index snapshot")
	}

	restored, err := TableFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	rects := []geom.Rect{
		{}, // all rows
		{MinX: -5, MinY: -5, MaxX: 5, MaxY: 5},
		{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100},
		{MinX: 3, MinY: -2, MaxX: 3.5, MaxY: 0},
	}
	predSets := [][]Pred{
		nil,
		{{Column: "v", Min: 25, Max: 75}},
		{{Column: "v", Min: math.NaN(), Max: 50}, {Column: "x", Min: 0, Max: math.Inf(1)}},
	}
	for _, r := range rects {
		for _, preds := range predSets {
			want, wantSt, err := orig.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, err := restored.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
			if err != nil {
				t.Fatal(err)
			}
			wi, gi := want.Indices(), got.Indices()
			if len(wi) != len(gi) {
				t.Fatalf("rect %v preds %v: %d rows vs %d", r, preds, len(wi), len(gi))
			}
			for i := range wi {
				if wi[i] != gi[i] {
					t.Fatalf("rect %v preds %v: row %d: %d vs %d", r, preds, i, wi[i], gi[i])
				}
			}
			if wantSt.IndexProbe != gotSt.IndexProbe || wantSt.CellsTouched != gotSt.CellsTouched ||
				wantSt.CellsPruned != gotSt.CellsPruned {
				t.Fatalf("rect %v preds %v: scan stats diverge: %+v vs %+v", r, preds, wantSt, gotSt)
			}
		}
	}
	// The restored pair must stay registered: a BulkLoad rebuilds it.
	if err := restored.BulkLoad([]float64{1}, []float64{2}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if d := restored.snapshot(); len(d.indexes) != 1 {
		t.Fatalf("index pair not re-registered after restore: %d indexes post-BulkLoad", len(d.indexes))
	}
}

// TestTableFromSnapshotRejectsCorruption mutates a valid snapshot one
// field at a time; every mutant must be rejected with an error, never
// accepted or panicking.
func TestTableFromSnapshotRejectsCorruption(t *testing.T) {
	base := func() TableSnapshot {
		return buildSnapshotTable(t, 2000, 2).SnapshotGeneration()
	}
	// Deep-copy the index slices a mutant touches so mutations cannot
	// leak into the (aliased) generation of a later base() table.
	cases := []struct {
		name   string
		mutate func(*TableSnapshot)
	}{
		{"short column", func(s *TableSnapshot) {
			s.Cols[2] = s.Cols[2][:len(s.Cols[2])-1]
		}},
		{"column count mismatch", func(s *TableSnapshot) {
			s.Cols = s.Cols[:2]
		}},
		{"negative rows", func(s *TableSnapshot) { s.NumRows = -1 }},
		{"index column out of range", func(s *TableSnapshot) {
			s.Indexes[0].XCol = 99
		}},
		{"index covers too many rows", func(s *TableSnapshot) {
			s.Indexes[0].NumRows = s.NumRows + 1
		}},
		{"grid dim zero", func(s *TableSnapshot) { s.Indexes[0].NX = 0 }},
		{"grid dim absurd", func(s *TableSnapshot) { s.Indexes[0].NX = 1 << 20 }},
		{"cell width zero", func(s *TableSnapshot) { s.Indexes[0].CellW = 0 }},
		{"cell width NaN", func(s *TableSnapshot) { s.Indexes[0].CellW = math.NaN() }},
		{"bounds NaN", func(s *TableSnapshot) { s.Indexes[0].Bounds.MinX = math.NaN() }},
		{"offsets truncated", func(s *TableSnapshot) {
			s.Indexes[0].CellOff = s.Indexes[0].CellOff[:len(s.Indexes[0].CellOff)-1]
		}},
		{"offsets decreasing", func(s *TableSnapshot) {
			off := append([]int32(nil), s.Indexes[0].CellOff...)
			off[len(off)/2] = off[len(off)/2-1] - 1
			s.Indexes[0].CellOff = off
		}},
		{"offsets nonzero start", func(s *TableSnapshot) {
			off := append([]int32(nil), s.Indexes[0].CellOff...)
			off[0] = 1
			s.Indexes[0].CellOff = off
		}},
		{"row id out of range", func(s *TableSnapshot) {
			ids := append([]int32(nil), s.Indexes[0].RowID...)
			ids[0] = int32(s.Indexes[0].NumRows)
			s.Indexes[0].RowID = ids
		}},
		{"row id negative", func(s *TableSnapshot) {
			ids := append([]int32(nil), s.Indexes[0].RowID...)
			ids[0] = -1
			s.Indexes[0].RowID = ids
		}},
		{"row id duplicated", func(s *TableSnapshot) {
			ids := append([]int32(nil), s.Indexes[0].RowID...)
			ids[len(ids)-1] = ids[0]
			s.Indexes[0].RowID = ids
		}},
		{"extra out of range", func(s *TableSnapshot) {
			ex := append([]int32(nil), s.Indexes[0].Extra...)
			ex[0] = int32(s.Indexes[0].NumRows)
			s.Indexes[0].Extra = ex
		}},
		{"extra not ascending", func(s *TableSnapshot) {
			ex := append([]int32(nil), s.Indexes[0].Extra...)
			ex[len(ex)-1] = ex[0]
			s.Indexes[0].Extra = ex
		}},
		{"row count imbalance", func(s *TableSnapshot) {
			s.Indexes[0].RowID = s.Indexes[0].RowID[:len(s.Indexes[0].RowID)-1]
		}},
		{"zone maps truncated", func(s *TableSnapshot) {
			s.Indexes[0].ZMin = s.Indexes[0].ZMin[:len(s.Indexes[0].ZMin)-1]
		}},
		{"duplicate index pair", func(s *TableSnapshot) {
			s.Indexes = append(s.Indexes, s.Indexes[0])
		}},
		{"empty index with grid", func(s *TableSnapshot) {
			s.Indexes[0].NumRows = 0
		}},
		{"empty name", func(s *TableSnapshot) { s.Name = "" }},
		{"duplicate column", func(s *TableSnapshot) { s.Columns[1] = s.Columns[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := base()
			tc.mutate(&snap)
			tb, err := TableFromSnapshot(snap)
			if err == nil {
				t.Fatalf("corrupt snapshot (%s) was accepted: %v", tc.name, tb.Name())
			}
		})
	}
}

func TestPublishCatalogAtomicity(t *testing.T) {
	s := New()
	// Pre-existing content that a failed publish must not disturb.
	pre, err := NewTable("base", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.BulkLoad([]float64{1, 2}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("keep", "x", "y"); err != nil {
		t.Fatal(err)
	}

	sample, err := NewTable("base_vas_2", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := sample.BulkLoad([]float64{1}, []float64{3}); err != nil {
		t.Fatal(err)
	}

	// Bad batch: the meta references a sample table missing from it.
	err = s.PublishCatalog([]*Table{pre}, []SampleMeta{{
		Table: "missing", Source: "base", Method: "vas", XCol: "x", YCol: "y", Size: 1,
	}})
	if err == nil {
		t.Fatal("batch with a dangling sample meta was accepted")
	}
	if _, err := s.Table("base"); err == nil {
		t.Fatal("failed publish leaked a table into the store")
	}

	// Bad batch: sample source neither in the batch nor the store.
	err = s.PublishCatalog([]*Table{sample}, []SampleMeta{{
		Table: "base_vas_2", Source: "nowhere", Method: "vas", XCol: "x", YCol: "y", Size: 1,
	}})
	if err == nil {
		t.Fatal("batch with an unknown source was accepted")
	}

	// Good batch lands completely.
	err = s.PublishCatalog([]*Table{pre, sample}, []SampleMeta{{
		Table: "base_vas_2", Source: "base", Method: "vas", XCol: "x", YCol: "y", Size: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table("base"); err != nil {
		t.Fatal("base table missing after publish")
	}
	metas := s.SamplesOf("base")
	if len(metas) != 1 || metas[0].Table != "base_vas_2" {
		t.Fatalf("sample lineage not registered: %+v", metas)
	}
	names := s.TableNames()
	if want := "base base_vas_2 keep"; strings.Join(names, " ") != want {
		t.Fatalf("tables = %v, want %q", names, want)
	}
}
