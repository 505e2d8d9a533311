package store

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
)

// tailRects is the viewport battery the appended-tail property tests
// probe with: unrestricted, inverted, in-bounds, out-of-bounds (appends
// land outside the base extent), degenerate, and NaN/±Inf-cornered
// rectangles.
func tailRects(rng *rand.Rand) []geom.Rect {
	rects := []geom.Rect{
		{},
		{MinX: 5, MinY: 5, MaxX: 4, MaxY: 4},
		{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9},
		{MinX: 120, MinY: -40, MaxX: 260, MaxY: 50},  // right of the base extent
		{MinX: -80, MinY: -80, MaxX: -10, MaxY: 300}, // left of it
		{MinX: math.NaN(), MinY: 30, MaxX: 60, MaxY: math.NaN()},
		{MinX: math.Inf(-1), MinY: 20, MaxX: math.Inf(1), MaxY: 80},
	}
	for q := 0; q < 8; q++ {
		rects = append(rects, geom.NewRect(
			geom.Pt(rng.Float64()*240-60, rng.Float64()*240-60),
			geom.Pt(rng.Float64()*240-60, rng.Float64()*240-60),
		))
	}
	return rects
}

// TestDeltaProbeMatchesRebuild is the appended-tail property test: over
// random append schedules — batches of varying size, dirty rows,
// interleaved compactions and IndexOn rebuilds — a probe served from
// the base index plus its tail must return exactly the rows that (a) a
// freshly built index over the same data and (b) the linear predicate
// scan return.
func TestDeltaProbeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		n0 := rng.Intn(3000)
		if trial == 0 {
			n0 = 0 // a tail over an empty-built index: the no-grid path
		}
		xs, ys := randomPoints(rng, n0)
		ms := make([]float64, n0)
		for i := range ms {
			ms[i] = (xs[i] + ys[i]) / 2
		}
		live, err := NewTable("live", "x", "y", "m")
		if err != nil {
			t.Fatal(err)
		}
		if err := live.BulkLoad(xs, ys, ms); err != nil {
			t.Fatal(err)
		}
		if err := live.IndexOn("x", "y"); err != nil {
			t.Fatal(err)
		}

		allX := append([]float64(nil), xs...)
		allY := append([]float64(nil), ys...)
		allM := append([]float64(nil), ms...)

		steps := 1 + rng.Intn(5)
		for step := 0; step < steps; step++ {
			// One append batch, with occasional non-finite coordinates
			// and values, landing partly outside the base extent.
			bn := 1 + rng.Intn(500)
			bx := make([]float64, bn)
			by := make([]float64, bn)
			bm := make([]float64, bn)
			for i := range bx {
				bx[i] = rng.Float64()*240 - 60
				by[i] = rng.Float64()*240 - 60
				bm[i] = (bx[i] + by[i]) / 2
				switch rng.Intn(40) {
				case 0:
					bx[i] = math.NaN()
				case 1:
					by[i] = math.Inf(1)
				case 2:
					bm[i] = math.NaN()
				}
			}
			if rng.Intn(2) == 0 {
				if err := live.AppendRows(bx, by, bm); err != nil {
					t.Fatal(err)
				}
			} else {
				for i := range bx {
					if err := appendRow(live, bx[i], by[i], bm[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			allX = append(allX, bx...)
			allY = append(allY, by...)
			allM = append(allM, bm...)

			switch rng.Intn(4) {
			case 0:
				live.Compact()
			case 1:
				if err := live.IndexOn("x", "y"); err != nil {
					t.Fatal(err)
				}
			}

			// Reference: the same data, bulk-loaded and fully indexed.
			rebuilt, err := NewTable("rebuilt", "x", "y", "m")
			if err != nil {
				t.Fatal(err)
			}
			if err := rebuilt.BulkLoad(allX, allY, allM); err != nil {
				t.Fatal(err)
			}
			if err := rebuilt.IndexOn("x", "y"); err != nil {
				t.Fatal(err)
			}

			predSets := [][]Pred{
				nil,
				{{Column: "m", Min: 20, Max: 90}},
				{{Column: "m", Min: math.NaN(), Max: 50}, {Column: "x", Min: -30, Max: math.Inf(1)}},
			}
			for _, r := range tailRects(rng) {
				for _, preds := range predSets {
					got, _, err := live.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := rebuilt.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, preds)
					if err != nil {
						t.Fatal(err)
					}
					gi, wi := got.Indices(), want.Indices()
					if len(gi) != len(wi) {
						t.Fatalf("trial %d step %d rect %v preds %v: tail probe %d rows, rebuilt %d",
							trial, step, r, preds, len(gi), len(wi))
					}
					for i := range gi {
						if gi[i] != wi[i] {
							t.Fatalf("trial %d step %d rect %v preds %v: row %d: tail %d, rebuilt %d",
								trial, step, r, preds, i, gi[i], wi[i])
						}
					}
					// And against the linear scan, the semantic ground
					// truth both index paths must reproduce.
					assertFilteredEquiv(t, live, r, preds, "tail-vs-linear")
				}
			}
		}
	}
}

// TestCompactAbsorbsDelta pins the compaction contract: after Compact,
// every row is covered by the published base index (the tail gauge
// drops to zero), results are unchanged, and the compaction counters
// advance.
func TestCompactAbsorbsDelta(t *testing.T) {
	s := New()
	tb, err := s.CreateTable("c", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := randomPoints(rand.New(rand.NewSource(5)), 4000)
	if err := tb.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		if err := appendRow(tb, float64(i)*0.1, 50); err != nil {
			t.Fatal(err)
		}
	}
	st := s.IndexStats()
	if st.TailRows != 700 {
		t.Fatalf("pre-compaction tail gauge %d, want 700", st.TailRows)
	}
	r := geom.Rect{MinX: 10, MinY: 10, MaxX: 70, MaxY: 70}
	before, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.Compact()
	st = s.IndexStats()
	if st.TailRows != 0 {
		t.Fatalf("post-compaction tail gauge %d, want 0", st.TailRows)
	}
	if st.Compactions != 1 || st.CompactionSeconds <= 0 {
		t.Fatalf("compaction counters: %d compactions, %g seconds", st.Compactions, st.CompactionSeconds)
	}
	after, _, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{r}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi, ai := before.Indices(), after.Indices()
	if len(bi) != len(ai) {
		t.Fatalf("compaction changed the answer: %d rows before, %d after", len(bi), len(ai))
	}
	for i := range bi {
		if bi[i] != ai[i] {
			t.Fatalf("row %d: %d before, %d after compaction", i, bi[i], ai[i])
		}
	}
	// Idempotent: nothing left to fold.
	tb.Compact()
	if got := s.IndexStats().Compactions; got != 1 {
		t.Fatalf("no-op compaction bumped the counter to %d", got)
	}
}

// TestAutoCompactTriggers verifies the threshold trigger: with
// SetAutoCompact, appending past the fraction fires a background
// compaction that folds the tail without any explicit call.
func TestAutoCompactTriggers(t *testing.T) {
	tb, err := NewTable("a", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := randomPoints(rand.New(rand.NewSource(6)), 3000)
	if err := tb.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	tb.SetAutoCompact(0.1)
	// 3000 * 0.1 = 300 >= compactMinRows, so this crosses the line.
	for i := 0; i < 400; i++ {
		if err := appendRow(tb, float64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The compaction may fire while the loop is still appending, folding
	// only the rows appended so far; the rest then sit below the new
	// threshold. Either way the index must outgrow the bulk load.
	deadline := time.Now().Add(5 * time.Second)
	for {
		d := tb.snapshot()
		if len(d.indexes) == 1 && d.indexes[0].rows() > 3000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never fired: index covers %d of %d rows", d.indexes[0].rows(), d.n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestZoneSkipAdapts drives a filtered probe with an uncorrelated
// column until the adaptive planner disables its zone checks, and
// verifies a correlated column keeps them.
func TestZoneSkipAdapts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200_000
	xs := make([]float64, n)
	ys := make([]float64, n)
	ms := make([]float64, n) // correlated with position
	us := make([]float64, n) // independent noise: zones can never prune
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = rng.Float64() * 100
		ms[i] = (xs[i] + ys[i]) / 2
		us[i] = rng.Float64() * 100
	}
	tb, err := NewTable("z", "x", "y", "m", "u")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoad(xs, ys, ms, us); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	uncorr := []Pred{{Column: "u", Min: 20, Max: 80}}
	var st ScanStats
	for i := 0; i < 60; i++ {
		if _, st, err = tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{{}}, uncorr); err != nil {
			t.Fatal(err)
		}
		if st.ZonesSkipped > 0 {
			break
		}
	}
	if st.ZonesSkipped != 1 {
		t.Fatalf("uncorrelated column never triggered the zone skip (stats %+v)", st)
	}
	// With no viewport either, the whole probe degenerates and must
	// have fallen back to the linear scan.
	if st.IndexProbe {
		t.Fatalf("all-skipped pure attribute filter still probed the grid: %+v", st)
	}
	// Results must be identical either way.
	assertFilteredEquiv(t, tb, geom.Rect{}, uncorr, "zone-skip-fallback")
	// A viewport keeps the probe (geometry still prunes) while the
	// skipped predicate is evaluated per row.
	vp := geom.Rect{MinX: 40, MinY: 40, MaxX: 60, MaxY: 60}
	_, st2, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{vp}, uncorr)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.IndexProbe || st2.ZonesSkipped != 1 {
		t.Fatalf("viewport + skipped filter should stay an index probe: %+v", st2)
	}
	assertFilteredEquiv(t, tb, vp, uncorr, "zone-skip-probe")
	// The correlated column must still be pruning.
	_, st3, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{vp}, []Pred{{Column: "m", Min: 95, Max: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if st3.ZonesSkipped != 0 || st3.CellsPruned == 0 {
		t.Fatalf("correlated column lost its zones: %+v", st3)
	}
	if got := tb.counters.zoneSkips.Load(); got == 0 {
		t.Fatal("zone-skip counter never advanced")
	}
}

// TestDeltaServesOutOfBoundsAppends pins that rows appended outside the
// base grid's extent are found by probes whose rectangles are also
// outside it, where the base index has nothing to walk.
func TestDeltaServesOutOfBoundsAppends(t *testing.T) {
	tb, err := NewTable("o", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := randomPoints(rand.New(rand.NewSource(8)), 2000)
	if err := tb.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	if err := appendRow(tb, 500, 500); err != nil { // far outside [0,100]²
		t.Fatal(err)
	}
	rows, st, err := tb.View().ScanRects(context.Background(), "x", "y", []geom.Rect{{MinX: 400, MinY: 400, MaxX: 600, MaxY: 600}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || !rows.Contains(2000) {
		t.Fatalf("out-of-bounds appended row not found: %v (stats %+v)", rows.Indices(), st)
	}
}
