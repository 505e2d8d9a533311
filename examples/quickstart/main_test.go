package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example at its own size: it must score all three
// samples.
func TestRun(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(&stdout); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"vas", "uniform", "stratified"} {
		if !strings.Contains(stdout.String(), name+" ") {
			t.Errorf("no %s score in:\n%s", name, stdout.String())
		}
	}
}
