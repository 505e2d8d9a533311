package store

import "math/bits"

// rowBitmap is the third RowSet representation: one bit per row over the
// base-trimmed span [base, base+64·len(words)). It is the cheap spelling
// of a dense-but-not-contiguous result (an attribute filter that keeps
// every other row, say): above 1/64 occupancy the bitmap undercuts the
// explicit id list by construction, and set algebra over two bitmaps is
// word-wise AND/OR instead of per-row merging. base is 64-aligned so two
// bitmaps always share word boundaries. count caches the popcount;
// representations are immutable after construction, so it never goes
// stale.
type rowBitmap struct {
	base  int
	words []uint64
	count int
}

// bitmapFromSorted packs sorted, duplicate-free ids into a bitmap.
func bitmapFromSorted(ids []int) *rowBitmap {
	if len(ids) == 0 {
		return &rowBitmap{}
	}
	base := ids[0] &^ 63
	span := ids[len(ids)-1] - base + 1
	words := make([]uint64, (span+63)/64)
	for _, id := range ids {
		words[(id-base)>>6] |= 1 << (uint(id-base) & 63)
	}
	return &rowBitmap{base: base, words: words, count: len(ids)}
}

func (b *rowBitmap) contains(row int) bool {
	i := row - b.base
	if i < 0 || i >= len(b.words)<<6 {
		return false
	}
	return b.words[i>>6]>>(uint(i)&63)&1 == 1
}

// forEach visits the set rows in ascending order.
func (b *rowBitmap) forEach(f func(row int)) {
	for wi, w := range b.words {
		for w != 0 {
			f(b.base + wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

func (b *rowBitmap) min() int {
	for wi, w := range b.words {
		if w != 0 {
			return b.base + wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return 0
}

func (b *rowBitmap) max() int {
	for wi := len(b.words) - 1; wi >= 0; wi-- {
		if w := b.words[wi]; w != 0 {
			return b.base + wi<<6 + 63 - bits.LeadingZeros64(w)
		}
	}
	return 0
}

// normalizeBitmap re-wraps an algebra result in the cheapest
// representation: contiguous runs become dense ranges, sparse results
// fall back to explicit ids, and anything else keeps the bitmap (with
// dead leading/trailing words trimmed so the span reflects the content).
func normalizeBitmap(b *rowBitmap) RowSet {
	if b.count == 0 {
		return RowSet{}
	}
	lo, hi := b.min(), b.max()
	if hi-lo+1 == b.count {
		return RowRange(lo, hi+1)
	}
	if b.count < bitmapMinRows || (hi-lo+1) >= b.count*64 {
		ids := make([]int, 0, b.count)
		b.forEach(func(row int) { ids = append(ids, row) })
		return RowSet{ids: ids, end: -1}
	}
	first, last := (lo-b.base)>>6, (hi-b.base)>>6
	if first > 0 || last < len(b.words)-1 {
		b = &rowBitmap{base: b.base + first<<6, words: b.words[first : last+1], count: b.count}
	}
	return RowSet{bm: b, end: -1}
}

// unionRangeBitmap unions the non-empty dense range [start, end) with
// the non-empty set other by setting both into one word array — O(span)
// bits rather than O(span) ids. ok is false when the combined span is
// too sparse for a bitmap to be the economical intermediate (a faraway
// outlier id next to a small range), in which case the caller falls
// back to the id merge.
func unionRangeBitmap(start, end int, other RowSet) (RowSet, bool) {
	oLo, _ := other.Min()
	oHi, _ := other.Max()
	lo := min(start, oLo) &^ 63
	hi := max(end, oHi+1)
	if hi-lo > (end-start+other.Len())*64 {
		return RowSet{}, false
	}
	words := make([]uint64, (hi-lo+63)>>6)
	w0, b0 := (start-lo)>>6, uint(start-lo)&63
	w1, b1 := (end-1-lo)>>6, uint(end-1-lo)&63
	if w0 == w1 {
		words[w0] = (^uint64(0) >> (63 - b1)) & (^uint64(0) << b0)
	} else {
		words[w0] = ^uint64(0) << b0
		for w := w0 + 1; w < w1; w++ {
			words[w] = ^uint64(0)
		}
		words[w1] = ^uint64(0) >> (63 - b1)
	}
	other.ForEach(func(row int) {
		words[(row-lo)>>6] |= 1 << (uint(row-lo) & 63)
	})
	count := 0
	for _, w := range words {
		count += bits.OnesCount64(w)
	}
	return normalizeBitmap(&rowBitmap{base: lo, words: words, count: count}), true
}

// popcount64 is a local alias so rowset.go's algebra can count bits
// without importing math/bits twice.
func popcount64(w uint64) int { return bits.OnesCount64(w) }

// rangeMinusBitmap subtracts the dead bitmap from the dense range
// [start, end) — the tombstone fast path for "all rows" results. When
// no dead bit falls inside the range it returns the range itself with
// no allocation; otherwise it materializes the surviving bits word-wise
// and normalizes.
func rangeMinusBitmap(start, end int, dead *rowBitmap) RowSet {
	if end <= start {
		return RowSet{}
	}
	if dead == nil || dead.count == 0 {
		return RowRange(start, end)
	}
	lo := max(start, dead.base)
	hi := min(end, dead.base+len(dead.words)<<6)
	overlap := 0
	for r := lo &^ 63; r < hi; r += 64 {
		w := dead.words[(r-dead.base)>>6]
		// Mask the word down to [start, end).
		if r < start {
			w &= ^uint64(0) << (uint(start-r) & 63)
		}
		if r+64 > end {
			w &= ^uint64(0) >> (uint(r+64-end) & 63)
		}
		overlap += bits.OnesCount64(w)
	}
	if overlap == 0 {
		return RowRange(start, end)
	}
	base := start &^ 63
	words := make([]uint64, (end-base+63)>>6)
	w0, b0 := (start-base)>>6, uint(start-base)&63
	w1, b1 := (end-1-base)>>6, uint(end-1-base)&63
	if w0 == w1 {
		words[w0] = (^uint64(0) >> (63 - b1)) & (^uint64(0) << b0)
	} else {
		words[w0] = ^uint64(0) << b0
		for w := w0 + 1; w < w1; w++ {
			words[w] = ^uint64(0)
		}
		words[w1] = ^uint64(0) >> (63 - b1)
	}
	do := (base - dead.base) >> 6
	for i := range words {
		di := do + i
		if di >= 0 && di < len(dead.words) {
			words[i] &^= dead.words[di]
		}
	}
	count := 0
	for _, w := range words {
		count += bits.OnesCount64(w)
	}
	return normalizeBitmap(&rowBitmap{base: base, words: words, count: count})
}

// orBitmapRows returns a copy of old (nil meaning empty) with ids set,
// plus how many of the ids were newly set. It is the tombstone-set
// copy-on-write constructor: bitmaps published in a tableData are
// immutable, so DeleteWhere builds a fresh one per publish. The result
// is always base-0 so the read path can index it by raw row id.
func orBitmapRows(old *rowBitmap, ids []int) (*rowBitmap, int) {
	if len(ids) == 0 {
		return old, 0
	}
	span := ids[len(ids)-1] + 1
	nw := (span + 63) >> 6
	if old != nil && old.base == 0 && len(old.words) > nw {
		nw = len(old.words)
	}
	words := make([]uint64, nw)
	count := 0
	if old != nil {
		// old.base is 0 for every bitmap this constructor ever built;
		// fold a trimmed bitmap back to base 0 just in case.
		o := old.base >> 6
		copy(words[o:], old.words)
		count = old.count
	}
	added := 0
	for _, id := range ids {
		wi, bit := id>>6, uint64(1)<<(uint(id)&63)
		if words[wi]&bit == 0 {
			words[wi] |= bit
			added++
		}
	}
	return &rowBitmap{base: 0, words: words, count: count + added}, added
}

// unionBitmaps ORs two bitmaps word-wise over their combined span.
func unionBitmaps(a, b *rowBitmap) RowSet {
	lo := min(a.base, b.base)
	hi := max(a.base+len(a.words)<<6, b.base+len(b.words)<<6)
	words := make([]uint64, (hi-lo)>>6)
	count := 0
	copyIn := func(m *rowBitmap) {
		o := (m.base - lo) >> 6
		for i, w := range m.words {
			words[o+i] |= w
		}
	}
	copyIn(a)
	copyIn(b)
	for _, w := range words {
		count += bits.OnesCount64(w)
	}
	return normalizeBitmap(&rowBitmap{base: lo, words: words, count: count})
}
