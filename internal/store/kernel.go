package store

// Branch-free columnar batch kernels — the one home for every hot row
// loop on the read path (the proximity-function package formerly named
// internal/kernel now lives at internal/proximity).
//
// The scalar row loops the kernels replace (matchPreds, inRect, and
// probe.span's scalar reference mode) evaluate every predicate for one
// row before moving to the next: each comparison is a conditional
// branch whose outcome is data-dependent, so at mid selectivities the
// CPU mispredicts constantly, and every row pays the full
// interpretation overhead (slice headers, predicate loop) even when the
// first predicate already failed.
//
// The batch kernels invert the loop: one predicate is evaluated over a
// contiguous stride of one column at a time, writing survivors into a
// reusable selection vector ([]int32) with a compare-and-compact idiom
// that contains no data-dependent branch at all:
//
//	dst[k] = id
//	k += keep          // keep ∈ {0,1}, computed with SETcc, not a jump
//
// The comparison form is exactly the scalar one — a row matches when
// !(v < min || v > max), so NaN values (which compare false on both
// sides) match every range predicate, and NaN bounds have been folded to
// ±Inf by normalizePreds before any kernel runs. Later predicates refine
// the selection in place, touching only surviving rows, so the work per
// extra predicate shrinks with the running selectivity instead of being
// paid per row.
//
// Kernels never allocate: callers own the selection buffers and slice
// them to the stride. TestKernelZeroAlloc locks that down, and
// TestKernelMatchesScalar / FuzzKernelEquivalence pin the kernels to the
// scalar reference semantics over NaN/±Inf-laced columns.

import "repro/internal/geom"

const (
	// kernelMinRows is the stride below which the planner keeps the
	// scalar per-row loop: a handful of rows costs less to test inline
	// than to route through selection buffers.
	kernelMinRows = 16
	// scanBatchRows is probe.span's block size on a long range (the
	// linear scan, a large appended tail): one selection buffer of this
	// many int32 ids (16 KiB) stays cache-resident while every predicate
	// column streams through it.
	scanBatchRows = 4096
)

// b2i converts a bool to 0/1; the compiler lowers it to a flag
// materialization (SETcc), not a branch, which is what keeps the
// compact loops below free of data-dependent jumps.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// selRange writes into dst the ids lo+i of the rows of col (a pre-cut
// window, id of col[i] being lo+i) whose value matches [min, max] under
// the scalar comparison form, and returns how many survived. dst must
// hold at least len(col) entries.
func selRange(dst []int32, col []float64, lo int32, min, max float64) int {
	k, i := 0, 0
	if useSelAsm && len(col) >= 8 {
		n4 := len(col) &^ 3
		k = selRangeAsm(dst, col[:n4], lo, min, max)
		i = n4
	}
	for ; i < len(col); i++ {
		v := col[i]
		dst[k] = lo + int32(i)
		k += int(b2i(!(v < min)) & b2i(!(v > max)))
	}
	return k
}

// selGather seeds a selection from an id run (a CSR cell run or tree
// leaf): it writes into dst the ids whose col value matches and
// returns how many survived. dst must hold at least len(ids) entries;
// ids index col directly.
func selGather(dst []int32, ids []int32, col []float64, min, max float64) int {
	k, i := 0, 0
	if useSelAsm && len(ids) >= 8 {
		n4 := len(ids) &^ 3
		k = selGatherAsm(dst, ids[:n4], col, min, max)
		i = n4
	}
	for ; i < len(ids); i++ {
		id := ids[i]
		v := col[id]
		dst[k] = id
		k += int(b2i(!(v < min)) & b2i(!(v > max)))
	}
	return k
}

// selRectGather seeds a selection from an id run with the fused
// rectangle test — the boundary-ring kernel. dst must hold at least
// len(ids) entries; ids index xs and ys directly.
func selRectGather(dst []int32, ids []int32, xs, ys []float64, r geom.Rect) int {
	k, i := 0, 0
	if useSelAsm && len(ids) >= 8 {
		n4 := len(ids) &^ 3
		k = selRectGatherAsm(dst, ids[:n4], xs, ys, r)
		i = n4
	}
	for ; i < len(ids); i++ {
		id := ids[i]
		x, y := xs[id], ys[id]
		dst[k] = id
		k += int(b2i(!(x < r.MinX)) & b2i(!(x > r.MaxX)) &
			b2i(!(y < r.MinY)) & b2i(!(y > r.MaxY)))
	}
	return k
}

// selRefine compacts sel in place to the ids whose col value matches,
// returning the surviving count. Each refinement touches only rows the
// previous kernels kept. The asm gather body is aliasing-safe in place:
// its compacted store at sel[k] never reaches past ids it has already
// read, since k <= i throughout.
func selRefine(sel []int32, col []float64, min, max float64) int {
	k, i := 0, 0
	if useSelAsm && len(sel) >= 8 {
		n4 := len(sel) &^ 3
		k = selGatherAsm(sel, sel[:n4], col, min, max)
		i = n4
	}
	for ; i < len(sel); i++ {
		id := sel[i]
		v := col[id]
		sel[k] = id
		k += int(b2i(!(v < min)) & b2i(!(v > max)))
	}
	return k
}

// filterDeadInts is the tombstone-aware refine pass: it compacts ids in
// place to the rows not set in dead, with the same compare-and-compact
// idiom as the selection kernels (the keep increment is a flag
// materialization, not a data-dependent jump — dead rows are rare, but
// when a delete lands in a hot cell the mispredict cost would be paid
// per row). dead bitmaps are base-0 (orBitmapRows builds them that
// way), so the word lookup is a direct shift-index. ids past the word
// array are alive by construction. Callers own ids; a nil or empty
// dead set returns ids unchanged.
func filterDeadInts(ids []int, dead *rowBitmap) []int {
	if dead == nil || dead.count == 0 {
		return ids
	}
	words := dead.words
	limit := len(words) << 6
	k := 0
	for _, id := range ids {
		ids[k] = id
		if id >= limit {
			k++
			continue
		}
		k += int(1 - (words[id>>6] >> (uint(id) & 63) & 1))
	}
	return ids[:k]
}

// appendSel appends a selection to the accumulating []int id list.
func appendSel(out []int, sel []int32) []int {
	for _, id := range sel {
		out = append(out, int(id))
	}
	return out
}

// gatherPointsDense projects a dense row range into points: xs and ys
// are pre-cut to exactly the range, dst to its length.
func gatherPointsDense(dst []geom.Point, xs, ys []float64) {
	for i := range dst {
		dst[i] = geom.Pt(xs[i], ys[i])
	}
}

// gatherPoints projects an explicit sorted id list into points; dst must
// be pre-sized to len(ids).
func gatherPoints(dst []geom.Point, ids []int, xs, ys []float64) {
	for i, id := range ids {
		dst[i] = geom.Pt(xs[id], ys[id])
	}
}

// gatherVals projects one column at an explicit sorted id list; dst must
// be pre-sized to len(ids).
func gatherVals(dst []float64, ids []int, col []float64) {
	for i, id := range ids {
		dst[i] = col[id]
	}
}
