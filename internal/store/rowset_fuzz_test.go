package store

import (
	"sort"
	"testing"
)

// decodeFuzzSet turns fuzzer bytes into a RowSet in a fuzzer-chosen
// representation plus the reference model. Bytes are gap-encoded (each
// byte advances the cursor by 1–32), so any input decodes to a valid
// sorted, duplicate-free id set. rep selects the representation: 0 lets
// the chooser pick, 1 forces the explicit id list, 2 forces the bitmap,
// 3 is the All sentinel (model == nil means the universal set).
func decodeFuzzSet(data []byte, rep byte) (RowSet, map[int]bool) {
	if rep%4 == 3 {
		return All, nil
	}
	model := make(map[int]bool, len(data))
	ids := make([]int, 0, len(data))
	cur := -1
	for _, b := range data {
		cur += int(b%32) + 1
		ids = append(ids, cur)
		model[cur] = true
	}
	switch rep % 4 {
	case 1:
		return RowIndices(ids), model
	case 2:
		if len(ids) == 0 {
			return RowSet{}, model
		}
		return RowSet{bm: bitmapFromSorted(ids), end: -1}, model
	default:
		return rowSetFromSorted(ids), model
	}
}

// checkSetAgainstModel verifies every RowSet accessor against the model
// set (nil model = All).
func checkSetAgainstModel(t *testing.T, label string, got RowSet, model map[int]bool) {
	t.Helper()
	if model == nil {
		if !got.all {
			t.Fatalf("%s: want the All sentinel, got %d rows", label, got.Len())
		}
		return
	}
	if got.all {
		t.Fatalf("%s: got All, want %d rows", label, len(model))
	}
	if got.Len() != len(model) {
		t.Fatalf("%s: Len %d, want %d", label, got.Len(), len(model))
	}
	want := make([]int, 0, len(model))
	for r := range model {
		want = append(want, r)
	}
	sort.Ints(want)
	i := 0
	prev := -1
	got.ForEach(func(r int) {
		if i < len(want) && r != want[i] {
			t.Fatalf("%s: ForEach[%d] = %d, want %d", label, i, r, want[i])
		}
		if r <= prev {
			t.Fatalf("%s: ForEach not strictly ascending: %d after %d", label, r, prev)
		}
		prev = r
		i++
	})
	if i != len(want) {
		t.Fatalf("%s: ForEach visited %d rows, want %d", label, i, len(want))
	}
	ids := got.Indices()
	if len(ids) != len(want) {
		t.Fatalf("%s: Indices len %d, want %d", label, len(ids), len(want))
	}
	for k, r := range ids {
		if r != want[k] {
			t.Fatalf("%s: Indices[%d] = %d, want %d", label, k, r, want[k])
		}
	}
	if len(want) > 0 {
		if lo, ok := got.Min(); !ok || lo != want[0] {
			t.Fatalf("%s: Min = %d ok=%v, want %d", label, lo, ok, want[0])
		}
		if hi, ok := got.Max(); !ok || hi != want[len(want)-1] {
			t.Fatalf("%s: Max = %d ok=%v, want %d", label, hi, ok, want[len(want)-1])
		}
		for _, probe := range []int{want[0], want[len(want)/2], want[len(want)-1]} {
			if !got.Contains(probe) {
				t.Fatalf("%s: Contains(%d) = false, want true", label, probe)
			}
		}
	} else if !got.IsEmpty() {
		t.Fatalf("%s: want empty", label)
	}
	for _, probe := range []int{-1, -5} {
		if got.Contains(probe) {
			t.Fatalf("%s: Contains(%d) = true for a negative row", label, probe)
		}
	}
	if hi, ok := got.Max(); ok {
		for _, probe := range []int{hi + 1, hi + 63, hi + 64} {
			if model[probe] != got.Contains(probe) {
				t.Fatalf("%s: Contains(%d) = %v past Max", label, probe, got.Contains(probe))
			}
		}
	}
}

// FuzzRowSetAlgebra drives Union over every representation
// pairing (auto-chosen, forced ids, forced bitmap, All) against a
// map[int]bool reference model, then re-validates every accessor of the
// results. Run the smoke with:
//
//	go test -run '^$' -fuzz FuzzRowSetAlgebra -fuzztime 10s ./internal/store
func FuzzRowSetAlgebra(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(0))
	f.Add([]byte{1, 1, 1, 1}, []byte{2, 2}, byte(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 3, 5}, byte(6))
	f.Add([]byte{31, 31, 31}, []byte{0, 31, 0, 31}, byte(9))
	f.Add([]byte{5, 9, 22, 1, 1, 1}, []byte{}, byte(3)) // a=All via rep bits
	f.Add([]byte{7}, []byte{7}, byte(15))               // All × All
	f.Add([]byte{1, 2, 4, 8, 16, 32, 64, 128}, []byte{255, 255}, byte(2))
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte, mode byte) {
		// Bound the decoded universe so a pathological input can't chew
		// through gigabytes of model map.
		if len(aRaw) > 1<<12 || len(bRaw) > 1<<12 {
			t.Skip("input too large")
		}
		a, ma := decodeFuzzSet(aRaw, mode&3)
		b, mb := decodeFuzzSet(bRaw, (mode>>2)&3)
		checkSetAgainstModel(t, "a", a, ma)
		checkSetAgainstModel(t, "b", b, mb)

		var mu map[int]bool // nil = All
		if ma != nil && mb != nil {
			mu = make(map[int]bool, len(ma)+len(mb))
			for r := range ma {
				mu[r] = true
			}
			for r := range mb {
				mu[r] = true
			}
		}
		checkSetAgainstModel(t, "a∪b", a.Union(b), mu)
		checkSetAgainstModel(t, "b∪a", b.Union(a), mu)
		// Idempotence and identities on the fuzzed operand.
		checkSetAgainstModel(t, "a∪a", a.Union(a), ma)
		checkSetAgainstModel(t, "a∪∅", a.Union(RowSet{}), ma)
		checkSetAgainstModel(t, "a∪All", a.Union(All), nil)
	})
}
