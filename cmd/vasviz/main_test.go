package main

import (
	"bytes"
	"image/png"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// TestRun draws a scatter, a zoomed map and a weighted plot of a small
// dataset file; each must decode as a PNG of the requested size. A zoom
// centred on an explicit -cx 0 -cy 0, away from the data, must draw
// another picture than the default centre.
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
	plot := func(args ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, "zoom.png")
		if err := run(append([]string{"-in", in, "-out", out, "-w", "64", "-h", "48", "-zoom", "4"}, args...), io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if bytes.Equal(plot(), plot("-cx", "0", "-cy", "0")) {
		t.Error("-cx 0 -cy 0 drew the default-centre zoom")
	}
}
