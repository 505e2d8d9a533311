package store

import "sort"

// RowSet is an immutable set of row indices produced by the scan side of
// the read path (Scan, ScanRect, ScanRectWhere) and consumed by the
// projection side (Points, Gather). It has three representations, and
// the scan layer picks the cheapest one per result:
//
//   - a dense range [start, end), the zero-allocation spelling of "every
//     row" (and of any contiguous run): projections walk the column
//     arrays directly and no per-row index is ever materialized;
//   - a compressed bitmap (base-trimmed, one bit per row of the span),
//     for dense-but-not-contiguous results such as selective attribute
//     filters over the whole extent — above 1/64 occupancy it undercuts
//     the id list, and Intersect/Union degrade to word-wise AND/OR;
//   - an explicit list of row indices, sorted ascending, for sparse
//     results such as viewport scans.
//
// Replacing raw []int with RowSet removes the old nil-means-all-rows
// ambiguity: an empty RowSet selects nothing, All selects everything,
// and both say so explicitly.
//
// The zero RowSet is the empty set. RowSet values are immutable and safe
// to share across goroutines.
type RowSet struct {
	// ids holds the explicit sorted row indices. When nil, the set is
	// the bitmap bm (if non-nil) or the dense range [start, end).
	ids        []int
	bm         *rowBitmap
	start, end int
	// all marks the All sentinel: "every row of whatever snapshot the
	// consuming operator reads".
	all bool
}

// All selects every row of whatever table snapshot the consuming
// operator (Points, Gather) reads — the zero-allocation spelling of "no
// restriction". Unlike a dense range built from an earlier NumRows
// call, All stays exact when a reload lands between the calls: each
// operator resolves it against its own snapshot, so a full-extent read
// can never go out of range. All has no standalone extent; Len and
// AsRange report the empty set until a table operator resolves it.
var All = RowSet{all: true}

// IsAll reports whether the set is the All sentinel.
func (s RowSet) IsAll() bool { return s.all }

// bitmapMinRows is the result size below which the bitmap representation
// is never chosen: a handful of ids costs less than any word array.
const bitmapMinRows = 128

// RowRange returns the dense RowSet [start, end). Bounds are normalized:
// a negative start is clamped to 0 and an end below start yields the
// empty set.
func RowRange(start, end int) RowSet {
	if start < 0 {
		start = 0
	}
	if end < start {
		end = start
	}
	return RowSet{start: start, end: end}
}

// RowIndices returns the RowSet holding exactly ids. The slice is
// retained (not copied); callers must not modify it afterwards. Indices
// are sorted ascending if they are not already.
func RowIndices(ids []int) RowSet {
	if len(ids) == 0 {
		return RowSet{}
	}
	if !sort.IntsAreSorted(ids) {
		sort.Ints(ids)
	}
	return RowSet{ids: ids, end: -1}
}

// rowSetFromSorted wraps ids already known to be sorted ascending and
// duplicate-free (the scan paths produce exactly that) in the cheapest
// representation: a contiguous run becomes a dense range (so a probe
// that happens to select everything costs nothing downstream), a result
// denser than 1/64 of its span becomes a bitmap, everything else keeps
// the id list as-is.
func rowSetFromSorted(ids []int) RowSet {
	n := len(ids)
	if n == 0 {
		return RowSet{}
	}
	span := ids[n-1] - ids[0] + 1
	if span == n {
		return RowRange(ids[0], ids[0]+n)
	}
	if n >= bitmapMinRows && span < n*64 {
		return RowSet{bm: bitmapFromSorted(ids), end: -1}
	}
	return RowSet{ids: ids, end: -1}
}

// Len returns the number of rows in the set.
func (s RowSet) Len() int {
	if s.ids != nil {
		return len(s.ids)
	}
	if s.bm != nil {
		return s.bm.count
	}
	return s.end - s.start
}

// IsEmpty reports whether the set selects no rows.
func (s RowSet) IsEmpty() bool { return s.Len() == 0 }

// AsRange reports the dense range [start, end) when the set has the
// dense representation. ok is false for bitmaps and explicit id lists.
func (s RowSet) AsRange() (start, end int, ok bool) {
	if s.ids != nil || s.bm != nil {
		return 0, 0, false
	}
	return s.start, s.end, true
}

// ForEach calls f for every row in ascending order.
func (s RowSet) ForEach(f func(row int)) {
	if s.ids != nil {
		for _, r := range s.ids {
			f(r)
		}
		return
	}
	if s.bm != nil {
		s.bm.forEach(f)
		return
	}
	for r := s.start; r < s.end; r++ {
		f(r)
	}
}

// Indices materializes the set as a sorted slice of row indices. The
// dense and bitmap representations allocate; the explicit representation
// returns a copy so callers cannot alias the set's storage.
func (s RowSet) Indices() []int {
	out := make([]int, 0, s.Len())
	if s.ids != nil {
		return append(out, s.ids...)
	}
	if s.bm != nil {
		s.bm.forEach(func(r int) { out = append(out, r) })
		return out
	}
	for r := s.start; r < s.end; r++ {
		out = append(out, r)
	}
	return out
}

// Contains reports whether row is in the set. O(1) for ranges, bitmaps
// and All; O(log n) for explicit id lists.
func (s RowSet) Contains(row int) bool {
	if s.all {
		return true
	}
	if s.ids != nil {
		i := sort.SearchInts(s.ids, row)
		return i < len(s.ids) && s.ids[i] == row
	}
	if s.bm != nil {
		return s.bm.contains(row)
	}
	return row >= s.start && row < s.end
}

// Min returns the smallest row in the set; ok is false when empty.
func (s RowSet) Min() (row int, ok bool) {
	if s.IsEmpty() {
		return 0, false
	}
	if s.ids != nil {
		return s.ids[0], true
	}
	if s.bm != nil {
		return s.bm.min(), true
	}
	return s.start, true
}

// Max returns the largest row in the set; ok is false when empty.
func (s RowSet) Max() (row int, ok bool) {
	if s.IsEmpty() {
		return 0, false
	}
	if s.ids != nil {
		return s.ids[len(s.ids)-1], true
	}
	if s.bm != nil {
		return s.bm.max(), true
	}
	return s.end - 1, true
}

// Intersect returns the set of rows in both s and t, in the cheapest
// representation for the result. All is the identity: All ∩ t = t. Two
// bitmaps intersect word-wise; otherwise the smaller side is iterated
// and probed against the larger.
func (s RowSet) Intersect(t RowSet) RowSet {
	if s.all {
		return t
	}
	if t.all {
		return s
	}
	if s.IsEmpty() || t.IsEmpty() {
		return RowSet{}
	}
	if as, ae, ok := s.AsRange(); ok {
		if bs, be, ok := t.AsRange(); ok {
			return RowRange(max(as, bs), min(ae, be))
		}
	}
	if s.bm != nil && t.bm != nil {
		return intersectBitmaps(s.bm, t.bm)
	}
	small, big := s, t
	if big.Len() < small.Len() {
		small, big = big, small
	}
	var ids []int
	small.ForEach(func(r int) {
		if big.Contains(r) && (len(ids) == 0 || ids[len(ids)-1] != r) {
			ids = append(ids, r)
		}
	})
	return rowSetFromSorted(ids)
}

// subtractBitmap removes the rows set in dead from s. It is the
// tombstone refine pass: dense ranges and bitmaps subtract word-wise,
// id lists compact through filterDeadInts on a copy. A nil or empty
// dead set returns s unchanged with no allocation.
func (s RowSet) subtractBitmap(dead *rowBitmap) RowSet {
	if dead == nil || dead.count == 0 || s.IsEmpty() {
		return s
	}
	if s.all {
		return s
	}
	if s.ids != nil {
		// Copy-on-write: the RowSet is immutable, so compact a copy —
		// but only once a dead row actually intersects the list.
		for i, r := range s.ids {
			if dead.contains(r) {
				out := make([]int, i, len(s.ids))
				copy(out, s.ids[:i])
				for _, r := range s.ids[i:] {
					if !dead.contains(r) {
						out = append(out, r)
					}
				}
				return rowSetFromSorted(out)
			}
		}
		return s
	}
	if s.bm != nil {
		lo := max(s.bm.base, dead.base)
		hi := min(s.bm.base+len(s.bm.words)<<6, dead.base+len(dead.words)<<6)
		if lo >= hi {
			return s
		}
		removed := 0
		so, do := (lo-s.bm.base)>>6, (lo-dead.base)>>6
		nw := (hi - lo) >> 6
		for i := 0; i < nw; i++ {
			removed += popcount64(s.bm.words[so+i] & dead.words[do+i])
		}
		if removed == 0 {
			return s
		}
		words := make([]uint64, len(s.bm.words))
		copy(words, s.bm.words)
		for i := 0; i < nw; i++ {
			words[so+i] &^= dead.words[do+i]
		}
		return normalizeBitmap(&rowBitmap{base: s.bm.base, words: words, count: s.bm.count - removed})
	}
	return rangeMinusBitmap(s.start, s.end, dead)
}

// rangeCovers reports (r, true) when r has the dense-range
// representation and other's rows all fall inside it.
func rangeCovers(r, other RowSet) (RowSet, bool) {
	start, end, ok := r.AsRange()
	if !ok {
		return RowSet{}, false
	}
	lo, _ := other.Min()
	hi, _ := other.Max()
	if lo >= start && hi < end {
		return r, true
	}
	return RowSet{}, false
}

// Union returns the set of rows in either s or t, in the cheapest
// representation for the result. All absorbs: All ∪ t = All. Two
// bitmaps union word-wise; otherwise the sorted id streams are merged
// (duplicates collapse, so the result is a set even if an input carried
// repeated ids).
func (s RowSet) Union(t RowSet) RowSet {
	if s.all || t.all {
		return All
	}
	if s.IsEmpty() {
		return t
	}
	if t.IsEmpty() {
		return s
	}
	if as, ae, ok := s.AsRange(); ok {
		if bs, be, ok := t.AsRange(); ok && as <= be && bs <= ae {
			return RowRange(min(as, bs), max(ae, be))
		}
	}
	// A range that already covers the other operand is the union; check
	// both sides, or a huge covering range on either side would be
	// materialized id by id below.
	if covered, ok := rangeCovers(s, t); ok {
		return covered
	}
	if covered, ok := rangeCovers(t, s); ok {
		return covered
	}
	// A non-covering range operand: OR it into a fresh bitmap word-wise
	// instead of materializing the range id by id (a 10M-row range is
	// ~150 KB of words vs 80 MB of ids).
	if start, end, ok := s.AsRange(); ok {
		if u, ok := unionRangeBitmap(start, end, t); ok {
			return u
		}
	}
	if start, end, ok := t.AsRange(); ok {
		if u, ok := unionRangeBitmap(start, end, s); ok {
			return u
		}
	}
	// Word-wise OR only when the combined span is dense enough to be
	// worth a word array: two locally dense bitmaps far apart would
	// allocate the whole gap only for normalizeBitmap to discard it.
	if s.bm != nil && t.bm != nil {
		lo := min(s.bm.base, t.bm.base)
		hi := max(s.bm.base+len(s.bm.words)<<6, t.bm.base+len(t.bm.words)<<6)
		if hi-lo <= (s.bm.count+t.bm.count)*64 {
			return unionBitmaps(s.bm, t.bm)
		}
	}
	a, b := s.Indices(), t.Indices()
	ids := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var next int
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			next = a[i]
			i++
		case i >= len(a) || b[j] < a[i]:
			next = b[j]
			j++
		default: // equal
			next = a[i]
			i++
			j++
		}
		if len(ids) == 0 || ids[len(ids)-1] != next {
			ids = append(ids, next)
		}
	}
	return rowSetFromSorted(ids)
}
