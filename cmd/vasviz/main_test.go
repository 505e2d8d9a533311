package main

import (
	"bytes"
	"image/png"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// TestRun draws a scatter, a zoomed map and a weighted plot of a small
// dataset file; each must decode as a PNG of the requested size.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "data.csv")
	if err := dataset.SaveFile(in, dataset.GeolifeLike(dataset.GeolifeOptions{N: 500, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	for i, args := range [][]string{
		nil,
		{"-map", "-zoom", "12", "-cx", "116.4", "-cy", "39.9"},
		{"-weighted", "-zoom", "4"},
	} {
		out := filepath.Join(dir, "plot.png")
		var stdout bytes.Buffer
		if err := run(append([]string{"-in", in, "-out", out, "-w", "64", "-h", "48"}, args...), &stdout); err != nil {
			t.Fatalf("case %d %v: %v", i, args, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := png.DecodeConfig(f)
		f.Close()
		if err != nil || cfg.Width != 64 || cfg.Height != 48 {
			t.Fatalf("case %d %v: %dx%d PNG, %v", i, args, cfg.Width, cfg.Height, err)
		}
	}
}
