package store

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/strtree"
)

// kNN: Table.Nearest answers "the k live rows nearest (x, y)" — the
// workload the R-tree backend unlocks. Over a treeIndex it is
// internal/strtree's best-first descent (Layout.Search) with a leaf
// visitor that applies the store's zone maps, tombstones and predicates;
// over the grid or an unindexed pair it degrades to the exact same answer
// by brute force. Either way every candidate lands in one strtree.KNN
// result heap, and the appended tail, the non-finite extras, tombstones,
// and residual predicates are handled identically, so the answer is
// always exactly the sort-by-distance order of the visible rows (ties
// broken by ascending row id).

// Neighbor is one kNN result row.
type Neighbor struct {
	// Row is the row id in the generation the query ran against.
	Row int
	// X, Y are the row's indexed-pair coordinates.
	X, Y float64
	// Dist is the Euclidean distance to the query point.
	Dist float64
}

// ErrBadNearest reports an invalid kNN request.
var ErrBadNearest = errors.New("store: invalid nearest query")

// Nearest returns the k live rows nearest to (x, y) in the (xCol, yCol)
// plane that satisfy every predicate, ascending by distance (ties by
// row id), along with scan statistics. Fewer than k rows come back when
// fewer match. Rows whose distance is NaN (a NaN coordinate) never
// match; ±Inf coordinates are comparable and can match at distance
// +Inf. The query point itself must be NaN-free.
func (t *Table) Nearest(xCol, yCol string, x, y float64, k int, preds []Pred) ([]Neighbor, ScanStats, error) {
	return t.nearest(nil, nil, xCol, yCol, x, y, k, preds)
}

// NearestCtx is Nearest with stage timing and cooperative cancellation:
// when ctx carries an obs.Trace the index descent (or brute-force
// sweep) is recorded as a probe span, and when ctx can be canceled the
// search polls it at frontier-pop and sweep-block boundaries and
// unwinds with ctx.Err().
func (t *Table) NearestCtx(ctx context.Context, xCol, yCol string, x, y float64, k int, preds []Pred) ([]Neighbor, ScanStats, error) {
	return t.nearest(obs.FromContext(ctx), newCanceler(ctx), xCol, yCol, x, y, k, preds)
}

func (t *Table) nearest(tr *obs.Trace, cn *canceler, xCol, yCol string, x, y float64, k int, preds []Pred) ([]Neighbor, ScanStats, error) {
	var st ScanStats
	if k <= 0 {
		return nil, st, fmt.Errorf("%w: k = %d", ErrBadNearest, k)
	}
	if math.IsNaN(x) || math.IsNaN(y) {
		return nil, st, fmt.Errorf("%w: NaN query point", ErrBadNearest)
	}
	xi, ok := t.colIdx[xCol]
	if !ok {
		return nil, st, fmt.Errorf("store: table %q column %q: %w", t.name, xCol, ErrNotFound)
	}
	yi, ok := t.colIdx[yCol]
	if !ok {
		return nil, st, fmt.Errorf("store: table %q column %q: %w", t.name, yCol, ErrNotFound)
	}
	pi := make([]int, len(preds))
	for i, p := range preds {
		ci, ok := t.colIdx[p.Column]
		if !ok {
			return nil, st, fmt.Errorf("store: table %q column %q: %w", t.name, p.Column, ErrNotFound)
		}
		pi[i] = ci
	}
	preds = normalizePreds(preds)
	d := t.snapshot()
	t.counters.nearestQueries.Add(1)
	h := strtree.NewKNN(k)
	xs, ys := d.cols[xi], d.cols[yi]
	offer := func(row int) {
		st.RowsExamined++
		if d.dead != nil && d.dead.contains(row) {
			return
		}
		if !matchPreds(d.cols, pi, preds, row) {
			return
		}
		dx, dy := xs[row]-x, ys[row]-y
		h.Push(dx*dx+dy*dy, row)
	}
	sp := tr.StartSpan(obs.StageProbe)
	covered := 0
	if tix, isTree := d.indexFor(xi, yi).(*treeIndex); isTree && tix.n > 0 {
		st.IndexProbe = true
		tix.nearestInto(x, y, &h, preds, pi, &st, cn, offer)
		covered = tix.n
	}
	// Everything the tree did not cover — the whole table on the grid /
	// unindexed path, the appended tail otherwise (delta rows included:
	// they are simply rows past the tree's build watermark) — is swept
	// brute force into the same heap, so the answer is exact under every
	// backend and mid-ingest.
	for row := covered; row < d.n; row++ {
		if row&(scanBatchRows-1) == 0 && cn.stop() {
			break
		}
		offer(row)
	}
	sp.End()
	// A canceled search has an incomplete heap — not the k nearest, just
	// the k nearest seen so far. Return the context error, never a wrong
	// answer.
	if err := cn.cause(); err != nil {
		return nil, st, err
	}
	d2s, rows := h.Sorted()
	out := make([]Neighbor, len(rows))
	for i, row := range rows {
		out[i] = Neighbor{Row: row, X: xs[row], Y: ys[row], Dist: math.Sqrt(d2s[i])}
	}
	t.counters.batchedRows.Add(int64(st.BatchedRows))
	return out, st, nil
}

// nearestInto runs strtree's best-first descent over the packed tree,
// offering every row of each leaf it reaches. Leaf zone maps rule out a
// leaf no row of which can satisfy the predicates before any row is
// touched, and one counter-gated poll per leaf stops a canceled descent
// (nearest() then returns the context error, never the incomplete heap).
// Non-finite extras are offered linearly — they have no MBR to bound.
func (ix *treeIndex) nearestInto(x, y float64, h *strtree.KNN, preds []Pred, pi []int, st *ScanStats, cn *canceler, offer func(row int)) {
	numLeaves := len(ix.LeafMBR)
	ix.Search(x, y, h, func(leaf int32) bool {
		if cn.stop() {
			return false
		}
		st.CellsTouched++
		for k, p := range preds {
			zi := pi[k]*numLeaves + int(leaf)
			if !ix.znan[zi] && (ix.zmax[zi] < p.Min || ix.zmin[zi] > p.Max) {
				st.CellsPruned++
				return true
			}
		}
		for _, id := range ix.Ord[ix.LeafOff[leaf]:ix.LeafOff[leaf+1]] {
			offer(int(id))
		}
		return true
	})
	for _, id := range ix.extra {
		offer(int(id))
	}
}
