package store

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// This file is the one probe body every spatial structure shares. The
// structures differ only in how they walk: the grid sweeps the cells a
// rectangle touches, the tree descends to the leaves it intersects. Each
// unit the walk reaches — cell or leaf — is an ascending run of row ids
// with a zone map, and probe.run decides it in one place: pruned by its
// zones, emitted whole, or filtered row by row through the batch
// kernels. Rows with a non-finite coordinate belong to no unit and go
// through probe.extras; rows appended after the index was built belong
// to no unit either, and probe.span filters them as one dense range.
// probe.span is also the whole of the linear scan: a probe over [0, n)
// that no index serves.

// zoneMaps summarise the rows of each unit per column: min and max over
// the non-NaN values and whether a NaN is present, laid out flat as
// [col·units + unit]. A unit with no non-NaN value in a column has min
// +Inf and max -Inf there. NaN matches every range predicate, so a unit
// holding one can never be pruned by that column — though it can still
// be all-pass, since the NaN rows pass and min/max bound the rest.
type zoneMaps struct {
	units    int
	min, max []float64
	nan      []bool
}

// zoneVerdict is what one zone consult proves about one predicate over
// one unit.
type zoneVerdict uint8

const (
	zoneResidual zoneVerdict = iota // inconclusive: test the rows
	zonePrune                       // no row can match
	zonePass                        // every row matches
)

func newZoneMaps(ncols, units int) zoneMaps {
	z := zoneMaps{units: units, min: make([]float64, ncols*units),
		max: make([]float64, ncols*units), nan: make([]bool, ncols*units)}
	for i := range z.min {
		z.min[i], z.max[i] = math.Inf(1), math.Inf(-1)
	}
	return z
}

// add folds row of every column of cols into unit u.
func (z *zoneMaps) add(cols [][]float64, u, row int) {
	for ci, col := range cols {
		if v := col[row]; math.IsNaN(v) {
			z.nan[ci*z.units+u] = true
		} else {
			z.widen(ci*z.units+u, v, v)
		}
	}
}

// widen extends entry zi to cover [lo, hi]. It compares with < and >
// rather than the min and max builtins, which would order -0 below +0
// and make the maps depend on which zero came first.
func (z *zoneMaps) widen(zi int, lo, hi float64) {
	if lo < z.min[zi] {
		z.min[zi] = lo
	}
	if hi > z.max[zi] {
		z.max[zi] = hi
	}
}

// fold merges unit su of src into unit u, for every column.
func (z *zoneMaps) fold(u int, src *zoneMaps, su int) {
	for ci := 0; ci*z.units < len(z.min); ci++ {
		zi, si := ci*z.units+u, ci*src.units+su
		z.widen(zi, src.min[si], src.max[si])
		z.nan[zi] = z.nan[zi] || src.nan[si]
	}
}

// verdict consults unit u's zone of column col for predicate p, whose
// NaN bounds are already folded to ±Inf.
func (z *zoneMaps) verdict(col, u int, p Pred) zoneVerdict {
	zi := col*z.units + u
	switch {
	case !z.nan[zi] && (z.max[zi] < p.Min || z.min[zi] > p.Max):
		return zonePrune
	case z.min[zi] >= p.Min && z.max[zi] <= p.Max:
		return zonePass
	}
	return zoneResidual
}

// sized checks that the maps hold one entry per column and unit, for a
// snapshot that claims them; unit names the unit kind in the error.
func (z *zoneMaps) sized(ncols int, unit string) error {
	if n := ncols * z.units; len(z.min) != n || len(z.max) != n || len(z.nan) != n {
		return fmt.Errorf("%s zone maps sized %d/%d/%d for %d columns x %d %ss",
			unit, len(z.min), len(z.max), len(z.nan), ncols, z.units, unit)
	}
	return nil
}

// zoneCount is one predicate's zone-consult record for the adaptive
// planner: how many units consulted its zones, and how many of those
// consults were decisive (pruned the unit or settled the predicate).
type zoneCount struct{ eval, decisive int64 }

// probe is one rectangle probe of one view: what every unit is filtered
// against, what the probe has emitted and accounted so far, and scratch
// reused across units. The walks append to ids unsorted.
type probe struct {
	cols   [][]float64
	xs, ys []float64 // the indexed pair's columns
	r      geom.Rect
	preds  []Pred // NaN bounds folded to ±Inf
	pi     []int  // column ordinal of each predicate
	skip   []bool // predicates whose zone checks the adaptive planner disabled; nil for none
	cn     *canceler
	tally  []zoneCount // per predicate
	st     ScanStats
	ids    []int
	// residual holds the positions of the predicates the current unit's
	// zones could not settle; sel is the kernels' selection vector.
	residual []int
	sel      []int32
	// Backing for tally, residual and sel, so a probe with a few
	// predicates over units of typical size allocates none of them. With
	// more predicates, the first zoneCheck allocates tally and residual:
	// a linear scan never makes one.
	tallyBuf [4]zoneCount
	resBuf   [4]int
	selBuf   [tailBlockRows]int32
}

// tailBlockRows sizes the probe's inline selection buffer and with it
// probe.span's block on a range shorter than scanBatchRows: 1 024 ids
// (4 KiB) amortize the per-block kernel calls over a short appended tail
// while the buffer stays inside the probe value, so a probe allocates no
// more for such a tail than without one. A longer range grows the
// buffer to scanBatchRows once.
const tailBlockRows = 1024

func newProbe(cols [][]float64, xs, ys []float64, r geom.Rect, preds []Pred, pi []int, skip []bool, cn *canceler) *probe {
	p := &probe{cols: cols, xs: xs, ys: ys, r: r, preds: preds, pi: pi, skip: skip, cn: cn}
	if n := len(preds); n <= len(p.tallyBuf) {
		p.tally, p.residual = p.tallyBuf[:n], p.resBuf[:0]
	}
	p.sel = p.selBuf[:]
	return p
}

// zoneCheck consults unit u of z for every predicate whose zones are not
// skipped. It reports whether some predicate fails every row of the
// unit; otherwise it leaves in p.residual the predicates the zones could
// not settle, skipped ones included.
func (p *probe) zoneCheck(z *zoneMaps, u int) bool {
	if n := len(p.preds); len(p.tally) != n {
		p.tally, p.residual = make([]zoneCount, n), make([]int, 0, n)
	}
	p.residual = p.residual[:0]
	for k, pr := range p.preds {
		v := zoneResidual
		if p.skip == nil || !p.skip[k] {
			v = z.verdict(p.pi[k], u, pr)
			p.tally[k].eval++
			if v != zoneResidual {
				p.tally[k].decisive++
			}
		}
		if v == zonePrune {
			return true
		}
		if v == zoneResidual {
			p.residual = append(p.residual, k)
		}
	}
	return false
}

// run is the one run filter. ids is a unit's ascending run, z and u its
// zone map, and needRect whether its rows can lie outside the probe's
// rectangle. A unit its zones prune costs nothing more; one that needs
// neither the rectangle test nor a residual predicate is emitted whole;
// anything else is filtered row by row, through the batch kernels when
// the run is long enough and through the scalar loops otherwise.
func (p *probe) run(ids []int32, z *zoneMaps, u int, needRect bool) {
	if p.zoneCheck(z, u) {
		p.st.CellsPruned++
		return
	}
	res := p.residual
	switch {
	case !needRect && len(res) == 0:
		p.st.CellsBulk++
		p.ids = appendSel(p.ids, ids)
		return
	case len(ids) >= kernelMinRows && !forceScalarKernels:
		// Seed a selection — the fused rectangle test when the unit needs
		// it, else the first residual predicate — then refine it in place
		// with the rest.
		if cap(p.sel) < len(ids) {
			p.sel = make([]int32, max(len(ids), 2*cap(p.sel)))
		}
		s := p.sel[:len(ids)]
		var k int
		if needRect {
			k = selRectGather(s, ids, p.xs, p.ys, p.r)
		} else {
			k = selGather(s, ids, p.cols[p.pi[res[0]]], p.preds[res[0]].Min, p.preds[res[0]].Max)
			res = res[1:]
		}
		for _, j := range res {
			if k == 0 {
				break
			}
			k = selRefine(s[:k], p.cols[p.pi[j]], p.preds[j].Min, p.preds[j].Max)
		}
		p.st.BatchedRows += len(ids)
		p.ids = appendSel(p.ids, s[:k])
	case len(res) == 1:
		// The dominant filtered case, one zone-inconclusive predicate:
		// its column and bounds are hoisted out of the row loop.
		col, lo, hi := p.cols[p.pi[res[0]]], p.preds[res[0]].Min, p.preds[res[0]].Max
		for _, id := range ids {
			if v := col[id]; !(v < lo || v > hi) && (!needRect || inRect(p.xs[id], p.ys[id], p.r)) {
				p.ids = append(p.ids, int(id))
			}
		}
	default:
		for _, id := range ids {
			if (!needRect || inRect(p.xs[id], p.ys[id], p.r)) && p.matches(res, int(id)) {
				p.ids = append(p.ids, int(id))
			}
		}
	}
	p.st.RowsExamined += len(ids)
}

// matches reports whether row passes the predicates at positions ks.
func (p *probe) matches(ks []int, row int) bool {
	for _, k := range ks {
		if v := p.cols[p.pi[k]][row]; v < p.preds[k].Min || v > p.preds[k].Max {
			return false
		}
	}
	return true
}

// extras filters rows that belong to no unit — a non-finite coordinate
// defeats both the cell arithmetic and the MBRs, and zone maps do not
// cover them — with the rectangle test and every predicate, exactly as
// the linear scan would (NaN matches everything, ±Inf nothing finite).
func (p *probe) extras(ids []int32) {
	for _, id := range ids {
		if inRect(p.xs[id], p.ys[id], p.r) && matchPreds(p.cols, p.pi, p.preds, int(id)) {
			p.ids = append(p.ids, int(id))
		}
	}
	p.st.RowsExamined += len(ids)
}

// span filters the dense row range [lo, hi) — the rows appended past the
// index's build watermark, or the whole table on a linear scan — with the
// rectangle test and every predicate. An axis or predicate whose bounds
// are both infinite matches every value, NaN included, so it costs no
// column pass; the first remaining column seeds each selection-buffer
// block and the rest refine it in place, and a block with nothing left to
// test is emitted whole. Ids come out ascending. The buffer grows to
// scanBatchRows rows for a range that long; the canceler is polled once
// per block, and a canceled span stops with a partial id set. Short
// ranges, the scalar reference mode and ids past the int32 selection
// domain take the scalar per-row loop instead.
func (p *probe) span(lo, hi int) {
	p.st.RowsExamined += hi - lo
	var buf [6]spanPass
	passes := p.passes(buf[:0])
	if forceScalarKernels || hi-lo < kernelMinRows || hi > math.MaxInt32 {
	rows:
		for row := lo; row < hi; row++ {
			if row&(scanBatchRows-1) == 0 && p.cn.stop() {
				return
			}
			for _, c := range passes {
				if v := c.col[row]; v < c.min || v > c.max {
					continue rows
				}
			}
			p.ids = append(p.ids, row)
		}
		return
	}
	p.st.BatchedRows += hi - lo
	if hi-lo >= scanBatchRows && len(p.sel) < scanBatchRows {
		p.sel = make([]int32, scanBatchRows)
	}
	blk := min(len(p.sel), scanBatchRows)
	for b := lo; b < hi; b += blk {
		if p.cn.stop() {
			return
		}
		e := min(b+blk, hi)
		if len(passes) == 0 {
			for row := b; row < e; row++ {
				p.ids = append(p.ids, row)
			}
			continue
		}
		s := p.sel[:e-b]
		k := selRange(s, passes[0].col[b:e], int32(b), passes[0].min, passes[0].max)
		for _, c := range passes[1:] {
			if k == 0 {
				break
			}
			k = selRefine(s[:k], c.col, c.min, c.max)
		}
		p.ids = appendSel(p.ids, s[:k])
	}
}

// spanPass is one column test of probe.span: col's value must lie in
// [min, max].
type spanPass struct {
	col      []float64
	min, max float64
}

// passes appends to dst the column tests a row of p must pass — x, then
// y, then each predicate — leaving out those with both bounds infinite.
func (p *probe) passes(dst []spanPass) []spanPass {
	add := func(col []float64, lo, hi float64) {
		if lo != math.Inf(-1) || hi != math.Inf(1) {
			dst = append(dst, spanPass{col, lo, hi})
		}
	}
	add(p.xs, p.r.MinX, p.r.MaxX)
	add(p.ys, p.r.MinY, p.r.MaxY)
	for k, pr := range p.preds {
		add(p.cols[p.pi[k]], pr.Min, pr.Max)
	}
	return dst
}
