package store

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// scalarSelect is the row-at-a-time oracle: the exact comparison form of
// matchPreds/scanRangeScalar applied to one column window.
func scalarSelect(col []float64, lo int32, min, max float64) []int32 {
	var want []int32
	for i, v := range col {
		if !(v < min || v > max) {
			want = append(want, lo+int32(i))
		}
	}
	return want
}

// lace returns n random values in [0, span), with a fraction of NaN and
// ±Inf rows mixed in — the dirty-data shape the scalar semantics are
// defined over.
func lace(rng *rand.Rand, n int, span float64) []float64 {
	col := make([]float64, n)
	for i := range col {
		switch rng.Intn(20) {
		case 0:
			col[i] = math.NaN()
		case 1:
			col[i] = math.Inf(1)
		case 2:
			col[i] = math.Inf(-1)
		default:
			col[i] = rng.Float64() * span
		}
	}
	return col
}

// TestKernelMatchesScalar is the kernel ≡ scalar property test: every
// selection kernel must agree with the row-at-a-time oracle over random
// NaN/±Inf-laced columns at selectivities from 0% to 100%, unaligned
// window starts, and empty batches.
func TestKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// [min, max] windows hitting ~0%, ~1%, ~50%, 100%, and inverted.
	bounds := [][2]float64{
		{2000, 3000},        // 0%
		{500, 510},          // ~1%
		{250, 750},          // ~50%
		{-1e308, 1e308},     // 100% of finite rows
		{700, 300},          // inverted: only NaN rows match
		{math.Inf(-1), 400}, // half-open
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300) // includes empty and sub-kernelMinRows batches
		lo := int32(rng.Intn(97))
		col := lace(rng, n, 1000)
		col2 := lace(rng, n, 1000)
		b := bounds[trial%len(bounds)]
		dst := make([]int32, n+1)

		got := dst[:selRange(dst, col, lo, b[0], b[1])]
		want := scalarSelect(col, lo, b[0], b[1])
		if !equalSel(got, want) {
			t.Fatalf("trial %d: selRange(n=%d, [%g,%g]) = %v, scalar %v", trial, n, b[0], b[1], got, want)
		}

		// Refine the survivors with a second predicate, in place. Refine
		// kernels index the column by absolute id, so pad col2 out to the
		// id space.
		col2Abs := append(make([]float64, lo), col2...)
		n2 := selRefine(got, col2Abs, 200, 600)
		var want2 []int32
		for _, id := range want {
			if v := col2Abs[id]; !(v < 200 || v > 600) {
				want2 = append(want2, id)
			}
		}
		if !equalSel(got[:n2], want2) {
			t.Fatalf("trial %d: selRefine = %v, scalar %v", trial, got[:n2], want2)
		}
	}
}

// TestKernelGatherMatchesScalar covers the id-run seeded kernels
// (selGather / selRectGather) — the cell-run and boundary-ring forms —
// including runs that index into the middle of a larger column.
func TestKernelGatherMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := 50 + rng.Intn(300)
		xs := lace(rng, n, 1000)
		ys := lace(rng, n, 1000)
		m := lace(rng, n, 1000)
		// A sparse ascending id run, like a CSR cell run.
		var ids []int32
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				ids = append(ids, int32(i))
			}
		}
		dst := make([]int32, len(ids)+1)
		k := selGather(dst, ids, m, 300, 700)
		var want []int32
		for _, id := range ids {
			if v := m[id]; !(v < 300 || v > 700) {
				want = append(want, id)
			}
		}
		if !equalSel(dst[:k], want) {
			t.Fatalf("trial %d: selGather = %v, scalar %v", trial, dst[:k], want)
		}

		r := geom.Rect{MinX: 50, MinY: 100, MaxX: 900, MaxY: 600}
		k = selRectGather(dst, ids, xs, ys, r)
		want = want[:0]
		for _, id := range ids {
			if inRect(xs[id], ys[id], r) {
				want = append(want, id)
			}
		}
		if !equalSel(dst[:k], want) {
			t.Fatalf("trial %d: selRectGather = %v, scalar %v", trial, dst[:k], want)
		}
	}
}

// TestScanRangeMatchesScalar pins probe.span, the one dense-range filter
// (the linear scan and the appended tail), to the scalar oracle: zero to
// three predicates, an unbounded, a half-bounded and a bounded
// rectangle, both kernel modes, and unaligned [lo, hi) windows —
// including windows that straddle a scanBatchRows block — and empty
// ranges.
func TestScanRangeMatchesScalar(t *testing.T) {
	defer func() { forceScalarKernels = false }()
	rng := rand.New(rand.NewSource(13))
	n := 3*scanBatchRows + 137
	// x, y, then the predicate columns a, b, c.
	cols := make([][]float64, 5)
	for i := range cols {
		cols[i] = lace(rng, n, 1000)
	}
	preds := []Pred{
		{Column: "a", Min: 100, Max: 900},
		{Column: "b", Min: 250, Max: 750},
		{Column: "c", Min: 400, Max: 600},
	}
	pi := []int{2, 3, 4}
	rects := []geom.Rect{
		unboundedRect,
		{MinX: 150, MinY: math.Inf(-1), MaxX: 850, MaxY: math.Inf(1)},
		{MinX: 150, MinY: 50, MaxX: 850, MaxY: 700},
	}
	windows := [][2]int{
		{0, n}, {0, 0}, {5, 5}, {3, 17}, // empty and tiny (scalar path)
		{scanBatchRows - 3, scanBatchRows + 3},
		{117, 2*scanBatchRows + 31},
		{n - 1, n},
	}
	for _, scalar := range []bool{false, true} {
		forceScalarKernels = scalar
		for _, r := range rects {
			for np := 0; np <= len(preds); np++ {
				// The oracle tests both axes whatever their bounds: ±Inf
				// bounds match every value, NaN included.
				oracle := append([]Pred{{Min: r.MinX, Max: r.MaxX}, {Min: r.MinY, Max: r.MaxY}}, preds[:np]...)
				for _, w := range windows {
					p := newProbe(cols, cols[0], cols[1], r, preds[:np], pi[:np], nil, nil)
					p.span(w[0], w[1])
					want := scanRangeScalar(cols[:2+np], oracle, w[0], w[1], nil)
					if !slices.Equal(p.ids, want) {
						t.Fatalf("scalar=%v rect %v preds=%d window %v: span %d rows, oracle %d",
							scalar, r, np, w, len(p.ids), len(want))
					}
					if p.st.RowsExamined != w[1]-w[0] || p.st.BatchedRows > p.st.RowsExamined {
						t.Fatalf("scalar=%v rect %v preds=%d window %v: %+v", scalar, r, np, w, p.st)
					}
				}
			}
		}
	}
}

// scanRangeScalar is the scalar oracle the dense-range filter is checked
// against: it appends the rows of [lo, hi) matching every predicate to
// out, short-circuiting on the first failing predicate. cols is parallel
// to preds.
func scanRangeScalar(cols [][]float64, preds []Pred, lo, hi int, out []int) []int {
rows:
	for r := lo; r < hi; r++ {
		for i, p := range preds {
			v := cols[i][r]
			if v < p.Min || v > p.Max {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out
}

// TestScanBatchedMatchesScalarEndToEnd runs whole filtered scans (index
// probe + appended tail + extras, and the unindexed pair's linear scan)
// and a delete twice — once through the batch kernels, once with
// forceScalarKernels — over a dirty table and requires identical row
// sets and delete counts. This is the macro form of the kernel ≡ scalar
// property.
func TestScanBatchedMatchesScalarEndToEnd(t *testing.T) {
	defer func() { forceScalarKernels = false }()
	rng := rand.New(rand.NewSource(16))
	const n = 20_000
	xs := lace(rng, n, 1000)
	ys := lace(rng, n, 1000)
	ms := lace(rng, n, 1000)
	cs := lace(rng, n, 1000)
	build := func() *Table {
		tb, err := NewTable("t", "x", "y", "m", "c")
		if err != nil {
			t.Fatal(err)
		}
		const split = 15_000
		if err := tb.AppendRows(xs[:split], ys[:split], ms[:split], cs[:split]); err != nil {
			t.Fatal(err)
		}
		if err := tb.IndexOn("x", "y"); err != nil {
			t.Fatal(err)
		}
		// The tail lands past the index, so the tail kernels run too.
		if err := tb.AppendRows(xs[split:], ys[split:], ms[split:], cs[split:]); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	tb := build()
	rects := []geom.Rect{
		{MinX: 100, MinY: 100, MaxX: 900, MaxY: 900},
		{MinX: 480, MinY: 480, MaxX: 520, MaxY: 520},
		{},
	}
	predSets := [][]Pred{
		nil,
		{{Column: "m", Min: 200, Max: 800}},
		{{Column: "m", Min: 200, Max: 800}, {Column: "c", Min: 100, Max: 600}},
	}
	// (x, y) is the index probe; (y, x) has no index, so it takes the
	// linear scan over every row.
	for _, pair := range [][2]string{{"x", "y"}, {"y", "x"}} {
		for _, r := range rects {
			for _, preds := range predSets {
				batch, _, err := tb.View().ScanRects(context.Background(), pair[0], pair[1], []geom.Rect{r}, preds)
				if err != nil {
					t.Fatal(err)
				}
				forceScalarKernels = true
				scalar, _, err := tb.View().ScanRects(context.Background(), pair[0], pair[1], []geom.Rect{r}, preds)
				forceScalarKernels = false
				if err != nil {
					t.Fatal(err)
				}
				if bIdx, sIdx := batch.Indices(), scalar.Indices(); !slices.Equal(bIdx, sIdx) {
					t.Fatalf("pair %v rect %v preds %v: batch %d rows, scalar %d", pair, r, preds, len(bIdx), len(sIdx))
				}
			}
		}
	}
	// A delete scans every row too; both modes delete the same count.
	var deleted [2]int
	for i, scalar := range []bool{false, true} {
		forceScalarKernels = scalar
		var err error
		if deleted[i], err = build().DeleteWhere(predSets[2]); err != nil {
			t.Fatal(err)
		}
	}
	if deleted[0] != deleted[1] || deleted[0] == 0 {
		t.Fatalf("DeleteWhere: batch deleted %d rows, scalar %d", deleted[0], deleted[1])
	}
}

func equalSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzKernelEquivalence drives the selection kernels with arbitrary
// bit patterns — every float64, including NaN payloads, ±Inf,
// denormals — and cross-checks them against the scalar oracle. The
// checked-in corpus (testdata/fuzz) makes the interesting shapes part
// of the repo's tier-1 test run.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{}, math.NaN(), 0.0, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.25, 0.75, uint8(3))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), -1.0, 1.0, uint8(255))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))),
		math.Float64bits(math.Inf(-1))), math.Inf(-1), math.Inf(1), uint8(16))
	f.Fuzz(func(t *testing.T, raw []byte, min, max float64, loByte uint8) {
		n := len(raw) / 8
		if n > 1<<12 {
			n = 1 << 12
		}
		col := make([]float64, n)
		for i := range col {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		lo := int32(loByte)
		dst := make([]int32, n+1)
		got := dst[:selRange(dst, col, lo, min, max)]
		want := scalarSelect(col, lo, min, max)
		if !equalSel(got, want) {
			t.Fatalf("selRange(%v, [%g,%g]) = %v, scalar %v", col, min, max, got, want)
		}
		// Refine the full id set through the gather kernel.
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		k := selGather(dst, ids, col, min, max)
		var wantG []int32
		for _, id := range ids {
			if v := col[id]; !(v < min || v > max) {
				wantG = append(wantG, id)
			}
		}
		if !equalSel(dst[:k], wantG) {
			t.Fatalf("selGather = %v, scalar %v", dst[:k], wantG)
		}
	})
}

// TestKernelZeroAlloc is the allocation-freedom guard the CI check
// leans on: every kernel inner loop must run without allocating, given
// caller-owned buffers. A kernel that starts allocating shows up here
// as a hard failure, not as a silent throughput cliff.
func TestKernelZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := scanBatchRows
	xs := lace(rng, n, 1000)
	ys := lace(rng, n, 1000)
	dst := make([]int32, n)
	ids := make([]int32, n/2)
	for i := range ids {
		ids[i] = int32(i * 2)
	}
	out := make([]int, 0, n)
	pts := make([]geom.Point, n/2)
	vals := make([]float64, n/2)
	outIdx := make([]int, n/2)
	for i := range outIdx {
		outIdx[i] = i * 2
	}
	r := geom.Rect{MinX: 100, MinY: 100, MaxX: 900, MaxY: 900}
	cases := map[string]func(){
		"selRange":      func() { selRange(dst, xs, 0, 200, 800) },
		"selGather":     func() { selGather(dst, ids, xs, 200, 800) },
		"selRectGather": func() { selRectGather(dst, ids, xs, ys, r) },
		"selRefine": func() {
			k := selGather(dst, ids, xs, -1e308, 1e308)
			selRefine(dst[:k], ys, 200, 800)
		},
		"appendSel": func() { appendSel(out, ids) },
		"gatherPointsDense": func() {
			gatherPointsDense(pts, xs[:len(pts)], ys[:len(pts)])
		},
		"gatherPoints": func() { gatherPoints(pts, outIdx, xs, ys) },
		"gatherVals":   func() { gatherVals(vals, outIdx, xs) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(50, fn); allocs != 0 {
			t.Errorf("%s allocated %.0f objects per run, want 0", name, allocs)
		}
	}
}

// BenchmarkKernelSelect isolates the kernel-vs-scalar gap on the
// residual-heavy shape (3 predicates, ~50% selectivity each, data the
// zone maps cannot settle): the microbenchmark behind the macro numbers
// in BenchmarkScanRectFiltered/residual.
func BenchmarkKernelSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	n := 1 << 16
	a := make([]float64, n)
	c := make([]float64, n)
	d := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64() * 1000
		c[i] = rng.Float64() * 1000
		d[i] = rng.Float64() * 1000
	}
	cols := [][]float64{a, c, d}
	preds := []Pred{
		{Column: "a", Min: 200, Max: 700},
		{Column: "c", Min: 100, Max: 600},
		{Column: "d", Min: 300, Max: 800},
	}
	b.Run("batch", func(b *testing.B) {
		out := make([]int, 0, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := newProbe(cols, nil, nil, unboundedRect, preds, []int{0, 1, 2}, nil, nil)
			p.ids = out[:0]
			p.span(0, n)
			out = p.ids
		}
		if len(out) == 0 {
			b.Fatal("no rows selected")
		}
	})
	b.Run("scalar", func(b *testing.B) {
		out := make([]int, 0, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = scanRangeScalar(cols, preds, 0, n, out[:0])
		}
		if len(out) == 0 {
			b.Fatal("no rows selected")
		}
	})
}
