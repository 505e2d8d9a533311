package main

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/store"
)

// model is the naive reference the server's answers are compared with: a
// slice of points and loops over it. It shares no code with internal/store.
type model struct {
	pts []geom.Point
}

func newModel(pts []geom.Point) *model {
	return &model{pts: append([]geom.Point(nil), pts...)}
}

func inside(p geom.Point, r geom.Rect) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

func passes(p geom.Point, filter []store.Pred) bool {
	for _, f := range filter {
		v := p.X
		if f.Column == "y" {
			v = p.Y
		}
		if v < f.Min || v > f.Max {
			return false
		}
	}
	return true
}

// count returns how many points lie in the union of rects and pass filter.
func (m *model) count(rects []geom.Rect, filter []store.Pred) int {
	n := 0
	for _, p := range m.pts {
		if !passes(p, filter) {
			continue
		}
		for _, r := range rects {
			if inside(p, r) {
				n++
				break
			}
		}
	}
	return n
}

// nearest returns the k smallest distances from q, ascending.
func (m *model) nearest(q geom.Point, k int) []float64 {
	best := make([]float64, 0, k+1)
	for _, p := range m.pts {
		d := math.Hypot(p.X-q.X, p.Y-q.Y)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// apply folds a write into the model.
func (m *model) apply(o *op) {
	switch o.kind {
	case kAppend:
		m.pts = append(m.pts, o.pts...)
	case kDelete:
		kept := m.pts[:0]
		for _, p := range m.pts {
			if !inside(p, o.rects[0]) {
				kept = append(kept, p)
			}
		}
		m.pts = kept
	}
}
