// Package viztime models visualization production latency, regenerating
// Fig. 2 and Fig. 4 of the paper.
//
// The paper times two closed/unavailable systems — Tableau (commercial,
// Windows-only) and MathGL (C++ plotting library) — so this package
// substitutes calibrated cost models: the paper's own measurements show
// latency is linear in the number of visualized tuples ("visualization
// time grew linearly with sample size"), composed of a fixed startup
// cost, a per-tuple fetch cost, and a per-tuple render cost. The model
// constants are fitted to the published curves
// (Tableau: >4 min at 50M in-memory tuples; both systems >2s at 1M; MathGL
// several times faster than Tableau at equal size).
//
// A Measured implementation that times this repository's real renderer is
// also provided so the linear-latency premise can be checked against an
// actual code path rather than only asserted.
package viztime

import (
	"time"

	"repro/internal/geom"
	"repro/internal/render"
)

// Model predicts visualization production time for a tuple count.
type Model interface {
	// Name identifies the modeled system.
	Name() string
	// Time returns the predicted latency to fetch and render n tuples.
	Time(n int) time.Duration
}

// LinearModel is startup + n·(fetch + render).
type LinearModel struct {
	System   string
	Startup  time.Duration
	PerFetch time.Duration // per-tuple transfer/deserialize cost
	PerDraw  time.Duration // per-tuple rasterize cost
}

// Name implements Model.
func (m LinearModel) Name() string { return m.System }

// Time implements Model.
func (m LinearModel) Time(n int) time.Duration {
	if n < 0 {
		n = 0
	}
	return m.Startup + time.Duration(n)*(m.PerFetch+m.PerDraw)
}

// Tableau returns the model fitted to the paper's Tableau measurements:
// ≈250s for a 50M-tuple in-memory scatter plot (Fig. 2 reports "over 4
// minutes"), ≈5s at 1M, ≈1.5s startup.
func Tableau() LinearModel {
	return LinearModel{
		System:   "tableau",
		Startup:  1500 * time.Millisecond,
		PerFetch: 3 * time.Microsecond,
		PerDraw:  2 * time.Microsecond,
	}
}

// MathGL returns the model fitted to the paper's MathGL measurements:
// linear like Tableau but a small constant factor faster, with SSD load
// dominating the per-tuple cost.
func MathGL() LinearModel {
	return LinearModel{
		System:   "mathgl",
		Startup:  200 * time.Millisecond,
		PerFetch: 800 * time.Nanosecond,
		PerDraw:  700 * time.Nanosecond,
	}
}

// InteractiveLimit is the upper bound of the HCI interactivity window the
// paper cites (500ms–2s); visualizations slower than this break the user's
// flow.
const InteractiveLimit = 2 * time.Second

// MaxInteractiveTuples returns the largest tuple count m can visualize
// within the interactive limit.
func MaxInteractiveTuples(m Model) int {
	if m.Time(0) > InteractiveLimit {
		return 0
	}
	// Latency is monotone in n; binary search the crossover.
	lo, hi := 0, 1
	for m.Time(hi) <= InteractiveLimit {
		hi *= 2
		if hi >= 1<<40 {
			return hi
		}
	}
	for lo < hi-1 {
		mid := lo + (hi-lo)/2
		if m.Time(mid) <= InteractiveLimit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TuplesWithin returns the largest tuple count renderable within budget,
// the conversion VAS performs when a query arrives with a time bound
// ("VAS chooses an appropriate sample size by converting the specified
// time bound into the number of tuples", §I).
func TuplesWithin(m Model, budget time.Duration) int {
	if m.Time(0) > budget {
		return 0
	}
	lo, hi := 0, 1
	for m.Time(hi) <= budget {
		hi *= 2
		if hi >= 1<<40 {
			return hi
		}
	}
	for lo < hi-1 {
		mid := lo + (hi-lo)/2
		if m.Time(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Measured times this repository's real renderer on synthetic points and
// satisfies Model by interpolating measurements. It exists to validate the
// linearity premise with a live code path.
type Measured struct {
	W, H int
}

// Name implements Model.
func (m Measured) Name() string { return "internal-renderer" }

// Time implements Model by actually rasterizing n synthetic points.
func (m Measured) Time(n int) time.Duration {
	w, h := m.W, m.H
	if w <= 0 {
		w = 512
	}
	if h <= 0 {
		h = 512
	}
	pts := make([]geom.Point, n)
	// Deterministic low-discrepancy fill; generation cost is part of the
	// "fetch" phase just as the paper's load-from-memory is.
	var x, y float64
	for i := range pts {
		x += 0.754877666
		y += 0.569840296
		if x >= 1 {
			x--
		}
		if y >= 1 {
			y--
		}
		pts[i] = geom.Pt(x, y)
	}
	start := time.Now()
	r := render.NewRaster(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, w, h)
	r.Plot(pts)
	_ = r.Image()
	return time.Since(start)
}
