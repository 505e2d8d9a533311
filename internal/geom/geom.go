// Package geom provides the 2D geometric primitives shared by every other
// package in this repository: points, rectangles, distance metrics, and
// viewport transforms used when rendering scatter and map plots.
//
// All coordinates are float64. A Point is the unit of data throughout the
// system: each database tuple selected for visualization is projected onto
// the two indexed columns and becomes one Point (see DESIGN.md §1).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2D visualization space. For a map plot X is
// longitude and Y is latitude; for a scatter plot they are the two plotted
// columns.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p with both coordinates multiplied by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the form used in the proximity kernels, where only
// ‖x-y‖² appears.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Equal reports whether p and q are exactly equal.
func (p Point) Equal(q Point) bool { return p.X == q.X && p.Y == q.Y }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, inclusive of its boundary. It is used
// for R-tree bounding boxes, stratification bins, and zoom viewports.
// A Rect is valid when MinX <= MaxX and MinY <= MaxY.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// RectAround returns the square of half-width r centred on p.
func RectAround(p Point, r float64) Rect {
	return Rect{MinX: p.X - r, MinY: p.Y - r, MaxX: p.X + r, MaxY: p.Y + r}
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and unions with any rectangle to produce that rectangle.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the horizontal extent of r, or 0 for an empty rectangle.
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the vertical extent of r, or 0 for an empty rectangle.
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r, or 0 for an empty rectangle.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// UnionPoint returns the smallest rectangle containing r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return r.Union(Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Bounds returns the bounding rectangle of pts, or an empty rectangle when
// pts is empty.
func Bounds(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.UnionPoint(p)
	}
	return r
}

// MaxPairwiseDist returns an upper bound on the maximum pairwise distance
// among pts: the diagonal of the bounding box. The paper sets the kernel
// bandwidth ε from the maximum pairwise distance (§III footnote 2); the
// bounding-box diagonal is within a factor of √2 of the true value and is
// computable in a single pass.
func MaxPairwiseDist(pts []Point) float64 {
	b := Bounds(pts)
	if b.IsEmpty() {
		return 0
	}
	w, h := b.Width(), b.Height()
	return math.Sqrt(w*w + h*h)
}

// ExactMaxPairwiseDist returns the exact maximum pairwise distance by
// scanning the convex-hull candidates of the bounding box corners. For small
// slices (n <= 2048) it is exact via the O(n²) scan; for larger inputs it
// falls back to the bounding-box diagonal bound.
func ExactMaxPairwiseDist(pts []Point) float64 {
	const cutoff = 2048
	if len(pts) > cutoff {
		return MaxPairwiseDist(pts)
	}
	var best float64
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist2(pts[j]); d > best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// Clamp limits v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
