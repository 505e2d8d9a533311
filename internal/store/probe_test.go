package store

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// The probe golden hashes pin what the probe machinery does on the
// schedule of TestProbeGolden, in three parts, so a change to how a probe
// accounts for its work cannot hide a change to what it answers:
// probeGoldenAnswers hashes every answer (row ids, kNN rows and
// distances, the delete count), probeGoldenZones the per-column adaptive
// zone counters after each call, and probeGoldenStats every ScanStats
// field.
const (
	probeGoldenAnswers uint64 = 0x5893c659323d29d5
	probeGoldenZones   uint64 = 0xd4f99d05cd2dccf1
	probeGoldenStats   uint64 = 0xfef96409dac6c0fa
)

// probeGoldenTable builds a 12 000-row table on the given backend: a
// dense cluster over uniform background, a spatially correlated column
// m, an uncorrelated column u (the zone maps' worst case, which earns a
// zone skip), a striped category c, and NaN / ±Inf coordinates (the
// extras). Then 3 000 rows are appended past the build (the tail),
// some far outside the bounds and some non-finite, and one rectangle is
// deleted (tombstones).
func probeGoldenTable(t testing.TB, backend string) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(32))
	gen := func(n int, spread float64) [][]float64 {
		cols := make([][]float64, 5)
		for i := range cols {
			cols[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			var x, y float64
			if rng.Intn(3) == 0 {
				x, y = 600+rng.NormFloat64()*40, 400+rng.NormFloat64()*40
			} else {
				x, y = rng.Float64()*spread-(spread-1000)/2, rng.Float64()*spread-(spread-1000)/2
			}
			switch rng.Intn(60) {
			case 0:
				x = math.NaN()
			case 1:
				y = math.Inf(1)
			case 2:
				x = math.Inf(-1)
			}
			cols[0][i], cols[1][i] = x, y
			cols[2][i] = (x+y)/2 + rng.NormFloat64()*10
			cols[3][i] = rng.Float64() * 1000
			cols[4][i] = float64(int(math.Abs(cols[2][i])/100) % 10)
		}
		return cols
	}
	useBackend(t, backend)
	tb, err := NewTable("golden", "x", "y", "m", "u", "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoad(gen(12_000, 1000)...); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRows(gen(3_000, 1400)...); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.DeleteWhere(rectPreds(geom.Rect{MinX: 100, MinY: 120, MaxX: 280, MaxY: 300})); err != nil {
		t.Fatal(err)
	}
	if got := tb.snapshot().indexFor(0, 1).backend(); got != backend {
		t.Fatalf("backend %q, want %q", got, backend)
	}
	return tb
}

// probeGoldenWide builds an 80 000-row uniform grid table with the
// golden table's columns: m correlated with the position, u not, and
// c a category.
func probeGoldenWide(t testing.TB) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(38))
	const n = 80_000
	cols := make([][]float64, 5)
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		cols[0][i], cols[1][i] = x, y
		cols[2][i] = (x+y)/2 + rng.NormFloat64()*10
		cols[3][i] = rng.Float64() * 1000
		cols[4][i] = float64(rng.Intn(10))
	}
	useBackend(t, BackendGrid)
	tb, err := NewTable("wide", "x", "y", "m", "u", "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoad(cols...); err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	if got := tb.snapshot().indexFor(0, 1).backend(); got != BackendGrid {
		t.Fatalf("backend %q, want %q", got, BackendGrid)
	}
	return tb
}

// TestProbeGolden runs a fixed probe schedule — both backends, both the
// batch-kernel and the scalar path, zero, one and two rectangles, zero,
// one and three predicates, a filtered Nearest, and the wide case's
// near-full probes, linear fallback and delete — and hashes every
// answer, every ScanStats field and the adaptive zone counters, each
// into its own hash. Any change to what a probe returns, how it
// accounts for the work, or what evidence it feeds the zone-skip
// planner changes the matching hash.
func TestProbeGolden(t *testing.T) {
	answers, zones, stats := fnv.New64a(), fnv.New64a(), fnv.New64a()
	var buf [8]byte
	put := func(h hash.Hash64, v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	b2 := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	putStats := func(st ScanStats) {
		if st.BatchedRows > st.RowsExamined {
			t.Fatalf("%+v: BatchedRows past RowsExamined", st)
		}
		for _, v := range []int64{b2(st.IndexProbe), int64(st.CellsTouched), int64(st.CellsPruned),
			int64(st.CellsBulk), int64(st.RowsExamined), int64(st.ZonesSkipped),
			int64(st.BatchedRows)} {
			put(stats, v)
		}
	}
	putZones := func(tb *Table) {
		for i := range tb.zoneStat {
			put(zones, tb.zoneStat[i].evaluated.Load())
			put(zones, tb.zoneStat[i].decisive.Load())
		}
	}
	putRows := func(rows RowSet) {
		put(answers, int64(rows.Len()))
		rows.ForEach(func(r int) { put(answers, int64(r)) })
	}
	rectSets := [][]geom.Rect{
		nil,
		{{MinX: 200, MinY: 150, MaxX: 700, MaxY: 650}},
		{{MinX: -300, MinY: -300, MaxX: 60, MaxY: 1300}, {MinX: 350, MinY: 300, MaxX: 980, MaxY: 900}},
	}
	predSets := [][]Pred{
		nil,
		{{Column: "m", Min: 300, Max: 600}},
		{{Column: "u", Min: 100, Max: 800}, {Column: "m", Min: 250, Max: 700}, {Column: "c", Min: math.NaN(), Max: 6}},
	}
	ctx := context.Background()
	for _, backend := range []string{BackendGrid, BackendRTree} {
		for _, scalar := range []bool{false, true} {
			forceScalarKernels = scalar
			tb := probeGoldenTable(t, backend)
			skipped := false
			for round := 0; round < 16; round++ {
				for _, rects := range rectSets {
					for _, preds := range predSets {
						rows, st, err := tb.View().ScanRects(ctx, "x", "y", rects, preds)
						if err != nil {
							t.Fatal(err)
						}
						putRows(rows)
						putStats(st)
						skipped = skipped || st.ZonesSkipped > 0
						putZones(tb)
					}
				}
			}
			ns, st, err := tb.View().Nearest(ctx, "x", "y", 520, 430, 25, predSets[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range ns {
				put(answers, int64(n.Row))
				put(answers, int64(math.Float64bits(n.Dist)))
			}
			putStats(st)
			forceScalarKernels = false
			if !skipped {
				t.Fatalf("%s scalar=%v: the schedule never earned a zone skip", backend, scalar)
			}
		}
	}
	// The wide case: near-full viewports over a uniform grid table whose
	// touched cells hold most of its 80 000 rows, the unindexed (y, x)
	// pair that takes the linear fallback over all of them, and one
	// delete that scans them too.
	for _, scalar := range []bool{false, true} {
		forceScalarKernels = scalar
		tb := probeGoldenWide(t)
		near := []geom.Rect{{MinX: 5, MinY: 5, MaxX: 995, MaxY: 995}}
		for _, pair := range [][2]string{{"x", "y"}, {"y", "x"}} {
			for _, preds := range predSets[:2] {
				rows, st, err := tb.View().ScanRects(ctx, pair[0], pair[1], near, preds)
				if err != nil {
					t.Fatal(err)
				}
				putRows(rows)
				putStats(st)
			}
		}
		putZones(tb)
		n, err := tb.DeleteWhere([]Pred{{Column: "m", Min: 200, Max: 450}, {Column: "u", Min: 0, Max: 700}})
		if err != nil {
			t.Fatal(err)
		}
		put(answers, int64(n))
		forceScalarKernels = false
	}
	for _, c := range []struct {
		name string
		h    hash.Hash64
		want uint64
	}{
		{"answers", answers, probeGoldenAnswers},
		{"zone counters", zones, probeGoldenZones},
		{"ScanStats", stats, probeGoldenStats},
	} {
		if got := c.h.Sum64(); got != c.want {
			t.Errorf("%s hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestProbeAllocs pins what one filtered viewport probe allocates on a
// small grid table, a small tree table, and a grid table with a 2 000-row
// appended tail: the probe value, the predicate ordinals and the id
// buffer, with the tally, residual and selection scratch inside the
// probe and the ids upper-bounded before any walk appends to them. The
// linear case is the same viewport over the unindexed (y, x) pair: the
// probe value and the predicate ordinals, one 16 KiB selection buffer
// for the 20 000-row span, and the id list, which nothing upper-bounds,
// growing by append to its ≈ 160 rows.
func TestProbeAllocs(t *testing.T) {
	mk := func(backend string, tail int) *Table {
		rng := rand.New(rand.NewSource(5))
		gen := func(n int) (xs, ys, ms []float64) {
			xs, ys, ms = make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i], ys[i] = rng.Float64()*1000, rng.Float64()*1000
				ms[i] = (xs[i]+ys[i])/2 + rng.NormFloat64()*5
			}
			return xs, ys, ms
		}
		useBackend(t, backend)
		tb, err := NewTable("a", "x", "y", "m")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.BulkLoad(gen(20_000)); err != nil {
			t.Fatal(err)
		}
		if err := tb.IndexOn("x", "y"); err != nil {
			t.Fatal(err)
		}
		if tail > 0 {
			if err := tb.AppendRows(gen(tail)); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	rects := []geom.Rect{{MinX: 300, MinY: 300, MaxX: 500, MaxY: 500}}
	preds := []Pred{{Column: "m", Min: 380, Max: 420}}
	// Five predicates outgrow the probe's inline zone-consult scratch,
	// which a linear scan never uses.
	preds5 := []Pred{
		{Column: "m", Min: 380, Max: 420}, {Column: "x", Min: 0, Max: 900}, {Column: "y", Min: 0, Max: 900},
		{Column: "m", Min: 0, Max: 900}, {Column: "x", Min: 100, Max: 1000},
	}
	for _, c := range []struct {
		name    string
		tb      *Table
		preds   []Pred
		ceiling float64
	}{
		{"grid", mk(BackendGrid, 0), preds, 3},
		{"rtree", mk(BackendRTree, 0), preds, 3},
		{"tail", mk(BackendGrid, 2_000), preds, 3},
		{"linear", mk(BackendGrid, 0), preds, 13},
		{"linear5", mk(BackendGrid, 0), preds5, 14},
	} {
		// The linear cases scan the unindexed (y, x) pair.
		xc, yc := "x", "y"
		if c.name == "linear" || c.name == "linear5" {
			xc, yc = "y", "x"
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := c.tb.View().ScanRects(context.Background(), xc, yc, rects, c.preds); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs per filtered probe, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
