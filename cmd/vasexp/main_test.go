package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRun lists the experiments and prints one report; an unknown scale
// is an error.
func TestRun(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-list"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if got := strings.Fields(stdout.String()); strings.Join(got, " ") != strings.Join(experiments.IDs(), " ") {
		t.Fatalf("-list printed %v, want %v", got, experiments.IDs())
	}
	stdout.Reset()
	if err := run([]string{"-exp", "fig4", "-scale", "small"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if out := stdout.String(); !strings.HasPrefix(out, "== fig4:") || !strings.Contains(out, "(fig4 in ") {
		t.Fatalf("fig4 report:\n%s", out)
	}
	if err := run([]string{"-exp", "fig4", "-scale", "huge"}, &stdout); err == nil {
		t.Fatal("an unknown scale was accepted")
	}
}
