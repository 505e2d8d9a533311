package main

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dataset"

	vas "repro"
)

// TestRun generates a dataset file, then samples it with each method:
// the dataset round-trips exactly, every sample is a subset of it that
// keeps its value column (or carries §V counts), and -snapshot writes a
// catalog that loads.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	var stdout bytes.Buffer
	if err := run([]string{"-gen", "geolife", "-n", "2000", "-seed", "3", "-out", data}, &stdout); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.LoadFile(data, "data")
	if err != nil {
		t.Fatal(err)
	}
	want := dataset.GeolifeLike(dataset.GeolifeOptions{N: 2000, Seed: 3})
	if !slices.Equal(d.Points, want.Points) || !slices.Equal(d.Values, want.Values) {
		t.Fatal("the dataset file does not round-trip")
	}
	value := make(map[vas.Point]float64, d.Len())
	for i, p := range d.Points {
		value[p] = d.Values[i]
	}

	snap := filepath.Join(dir, "snap")
	for _, c := range []struct {
		method string
		args   []string
	}{
		{"vas", []string{"-density", "-snapshot", snap}},
		{"vas", nil},
		{"uniform", nil},
		{"stratified", []string{"-bins", "316"}},
	} {
		out := filepath.Join(dir, c.method+".csv")
		args := append([]string{"-in", data, "-method", c.method, "-k", "50", "-out", out}, c.args...)
		if err := run(args, &stdout); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		s, err := dataset.LoadFile(out, "sample")
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 50 || len(s.Values) != 50 {
			t.Fatalf("%v: %d points, %d values, want 50 of each", args, s.Len(), len(s.Values))
		}
		density := slices.Contains(c.args, "-density")
		total := 0.0
		for i, p := range s.Points {
			v, ok := value[p]
			if !ok {
				t.Fatalf("%v: sample point %v is not in the dataset", args, p)
			}
			if !density && s.Values[i] != v {
				t.Fatalf("%v: point %v carries %g, the dataset %g", args, p, s.Values[i], v)
			}
			total += s.Values[i]
		}
		if density && total != float64(d.Len()) {
			t.Fatalf("%v: density counts sum to %g, want %d", args, total, d.Len())
		}
	}
	if err := vas.NewCatalog().LoadSnapshot(snap); err != nil {
		t.Fatalf("the -snapshot output does not load: %v", err)
	}
}
