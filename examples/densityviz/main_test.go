package main

import (
	"bytes"
	"image/png"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun runs the example at its own size: both plots must decode as
// PNGs, and the counts must sum to the dataset.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run(dir, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"vas_plain.png", "vas_density.png"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		_, err = png.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if !strings.Contains(stdout.String(), "counts sum=60000, dataset size=60000") {
		t.Errorf("counts do not sum to the dataset:\n%s", stdout.String())
	}
}
