package viztime

import (
	"testing"
	"time"
)

func TestLinearModel(t *testing.T) {
	m := LinearModel{System: "x", Startup: time.Second, PerFetch: time.Microsecond, PerDraw: time.Microsecond}
	if got := m.Time(0); got != time.Second {
		t.Errorf("Time(0) = %v", got)
	}
	if got := m.Time(1_000_000); got != time.Second+2*time.Second {
		t.Errorf("Time(1M) = %v, want 3s", got)
	}
	if got := m.Time(-5); got != time.Second {
		t.Errorf("negative n: %v", got)
	}
	if m.Name() != "x" {
		t.Error("Name mismatch")
	}
}

func TestPaperShapeTableau(t *testing.T) {
	tab := Tableau()
	// Fig. 2 anchor: >4 minutes at 50M in-memory tuples.
	if got := tab.Time(50_000_000); got < 4*time.Minute {
		t.Errorf("Tableau at 50M = %v, paper reports > 4 minutes", got)
	}
	// Fig. 4 anchor: already beyond the interactive limit at 1M.
	if got := tab.Time(1_000_000); got <= InteractiveLimit {
		t.Errorf("Tableau at 1M = %v, should exceed the 2s interactive limit", got)
	}
}

func TestPaperShapeMathGL(t *testing.T) {
	mgl := MathGL()
	tab := Tableau()
	// MathGL is faster than Tableau at every size but still misses the
	// interactive limit at 2M+.
	for _, n := range []int{1_000_000, 10_000_000, 100_000_000} {
		if mgl.Time(n) >= tab.Time(n) {
			t.Errorf("MathGL slower than Tableau at %d", n)
		}
	}
	if mgl.Time(2_000_000) <= InteractiveLimit {
		t.Errorf("MathGL at 2M = %v, should exceed 2s", mgl.Time(2_000_000))
	}
}

func TestMaxInteractiveTuplesInvertsTime(t *testing.T) {
	for _, m := range []Model{Tableau(), MathGL()} {
		n := MaxInteractiveTuples(m)
		if n <= 0 {
			t.Fatalf("%s: no interactive tuple count", m.Name())
		}
		if m.Time(n) > InteractiveLimit {
			t.Errorf("%s: Time(%d) = %v exceeds the limit", m.Name(), n, m.Time(n))
		}
		if m.Time(n+1) <= InteractiveLimit {
			t.Errorf("%s: %d is not maximal", m.Name(), n)
		}
	}
}

func TestTuplesWithin(t *testing.T) {
	m := Tableau()
	for _, budget := range []time.Duration{3 * time.Second, 10 * time.Second, time.Minute} {
		n := TuplesWithin(m, budget)
		if m.Time(n) > budget {
			t.Errorf("budget %v: Time(%d) = %v over budget", budget, n, m.Time(n))
		}
		if m.Time(n+1) <= budget {
			t.Errorf("budget %v: %d not maximal", budget, n)
		}
	}
	// Budget below startup: zero tuples.
	if n := TuplesWithin(m, time.Millisecond); n != 0 {
		t.Errorf("sub-startup budget admits %d tuples", n)
	}
}

func TestMonotoneBudgetProperty(t *testing.T) {
	m := MathGL()
	prev := -1
	for _, budget := range []time.Duration{
		500 * time.Millisecond, time.Second, 2 * time.Second,
		5 * time.Second, 30 * time.Second,
	} {
		n := TuplesWithin(m, budget)
		if n < prev {
			t.Fatalf("tuple budget decreased: %d after %d", n, prev)
		}
		prev = n
	}
}

func TestMeasuredRendererRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("real rendering timing")
	}
	meas := Measured{W: 64, H: 64}
	d := meas.Time(10_000)
	if d <= 0 {
		t.Errorf("measured time %v", d)
	}
	if meas.Name() == "" {
		t.Error("empty name")
	}
}
