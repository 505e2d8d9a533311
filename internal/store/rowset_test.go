package store

import (
	"testing"
)

func TestRowSetRepresentations(t *testing.T) {
	// Zero value: empty.
	var zero RowSet
	if !zero.IsEmpty() || zero.Len() != 0 {
		t.Errorf("zero RowSet: empty=%v len=%d", zero.IsEmpty(), zero.Len())
	}
	if _, _, ok := zero.AsRange(); !ok {
		t.Error("zero RowSet should be the empty dense range")
	}

	// Dense range.
	r := RowRange(2, 5)
	if r.Len() != 3 {
		t.Errorf("RowRange(2,5).Len = %d", r.Len())
	}
	if got := r.Indices(); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("RowRange indices = %v", got)
	}
	if lo, _ := r.Min(); lo != 2 {
		t.Errorf("Min = %d", lo)
	}
	if hi, _ := r.Max(); hi != 4 {
		t.Errorf("Max = %d", hi)
	}
	// Normalization.
	if !RowRange(3, 1).IsEmpty() {
		t.Error("inverted range should be empty")
	}
	if s, _, _ := RowRange(-4, 2).AsRange(); s != 0 {
		t.Errorf("negative start clamped to %d, want 0", s)
	}

	// Explicit indices sort defensively.
	s := RowIndices([]int{4, 1, 3})
	if got := s.Indices(); got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Errorf("RowIndices sorted = %v", got)
	}
	if _, _, ok := s.AsRange(); ok {
		t.Error("explicit indices must not report a dense range")
	}
	var sum int
	s.ForEach(func(row int) { sum += row })
	if sum != 8 {
		t.Errorf("ForEach sum = %d", sum)
	}

	// Empty input normalizes to the empty set.
	if !RowIndices(nil).IsEmpty() || !RowIndices([]int{}).IsEmpty() {
		t.Error("empty indices should be the empty set")
	}

	// The All sentinel.
	if !All.all || zero.all {
		t.Error("only the All sentinel may be all")
	}
}

func TestRowSetRepresentationChooser(t *testing.T) {
	// Contiguous runs collapse to the dense range.
	s := rowSetFromSorted([]int{5, 6, 7, 8})
	if start, end, ok := s.AsRange(); !ok || start != 5 || end != 9 {
		t.Errorf("contiguous run = range[%d,%d) ok=%v, want [5,9)", start, end, ok)
	}
	// Dense-but-gappy results above the size floor become bitmaps.
	ids := make([]int, 0, 500)
	for i := 0; i < 1000; i += 2 {
		ids = append(ids, i)
	}
	s = rowSetFromSorted(ids)
	if s.bm == nil {
		t.Fatalf("every-other-row result should pick the bitmap (ids=%v...)", s.Indices()[:4])
	}
	if s.Len() != 500 {
		t.Errorf("bitmap Len = %d, want 500", s.Len())
	}
	if got := s.Indices(); got[0] != 0 || got[499] != 998 || got[250] != 500 {
		t.Errorf("bitmap indices = [%d ... %d]", got[0], got[499])
	}
	if s.Contains(499) || !s.Contains(498) {
		t.Error("bitmap membership wrong around 498/499")
	}
	if lo, _ := s.Min(); lo != 0 {
		t.Errorf("bitmap Min = %d", lo)
	}
	if hi, _ := s.Max(); hi != 998 {
		t.Errorf("bitmap Max = %d", hi)
	}
	if _, _, ok := s.AsRange(); ok {
		t.Error("bitmap must not report a dense range")
	}
	// Sparse results keep the id list.
	s = rowSetFromSorted([]int{1, 100_000, 3_000_000})
	if s.bm != nil || s.ids == nil {
		t.Error("sparse result should keep the explicit id list")
	}
	// Small results never pay for a bitmap even when dense in span.
	s = rowSetFromSorted([]int{1, 3, 5})
	if s.bm != nil {
		t.Error("3-row result should not build a bitmap")
	}
}

func TestRowSetAlgebra(t *testing.T) {
	evens := make([]int, 0, 300)
	byThree := make([]int, 0, 200)
	for i := 0; i < 600; i += 2 {
		evens = append(evens, i)
	}
	for i := 0; i < 600; i += 3 {
		byThree = append(byThree, i)
	}
	a := rowSetFromSorted(evens)   // bitmap
	b := rowSetFromSorted(byThree) // bitmap
	if a.bm == nil || b.bm == nil {
		t.Fatal("test premise: both operands should be bitmaps")
	}
	union := a.Union(b)
	if union.Len() != 300+200-100 {
		t.Fatalf("union Len = %d, want 400", union.Len())
	}

	// Range × range.
	r1, r2 := RowRange(0, 100), RowRange(50, 200)
	if s, e, ok := r1.Union(r2).AsRange(); !ok || s != 0 || e != 200 {
		t.Errorf("range ∪ range = [%d,%d) ok=%v", s, e, ok)
	}
	// Disjoint ranges cannot merge.
	u := RowRange(0, 10).Union(RowRange(20, 30))
	if u.Len() != 20 || u.Contains(15) {
		t.Errorf("disjoint union Len=%d Contains(15)=%v", u.Len(), u.Contains(15))
	}

	// All absorbs ∪.
	ids := RowIndices([]int{3, 9})
	if !ids.Union(All).all || !All.Union(ids).all {
		t.Error("union with All must be All")
	}

	// Empty is the identity for ∪.
	if got := ids.Union(RowSet{}); got.Len() != 2 {
		t.Errorf("ids ∪ empty = %v", got.Indices())
	}

	// A range covering the other operand absorbs the union.
	if s, e, ok := RowRange(0, 1000).Union(ids).AsRange(); !ok || s != 0 || e != 1000 {
		t.Errorf("covering-range union = [%d,%d) ok=%v", s, e, ok)
	}
	// A large range with a nearby outlier unions through the word-wise
	// path (no 100k-id materialization of the range).
	u = RowRange(0, 100_000).Union(RowIndices([]int{200_000}))
	if u.Len() != 100_001 || !u.Contains(99_999) || !u.Contains(200_000) || u.Contains(150_000) {
		t.Errorf("range∪outlier: len=%d contains(99999,200000,150000)=%v,%v,%v",
			u.Len(), u.Contains(99_999), u.Contains(200_000), u.Contains(150_000))
	}
	// A faraway outlier makes the combined span too sparse for a bitmap;
	// the fallback merge must still be exact.
	u = RowRange(0, 10).Union(RowIndices([]int{1 << 30}))
	if u.Len() != 11 || !u.Contains(9) || !u.Contains(1<<30) {
		t.Errorf("sparse range∪outlier: len=%d", u.Len())
	}
}

func TestRowSetIndicesCopies(t *testing.T) {
	ids := []int{1, 2, 3}
	s := RowIndices(ids)
	out := s.Indices()
	out[0] = 99
	if got := s.Indices(); got[0] != 1 {
		t.Errorf("Indices aliased internal storage: %v", got)
	}
}
