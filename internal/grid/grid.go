// Package grid implements a uniform spatial grid over a bounding rectangle:
// the stratification bins of the stratified-sampling baseline (the paper
// uses a 316×316 grid for Fig. 1 and 100 bins for the user study). It maps
// points to cells and stores nothing.
package grid

import (
	"fmt"

	"repro/internal/geom"
)

// Grid divides a bounding rectangle into Cols × Rows equal cells. Points
// outside the bounds are clamped into the border cells, which matches how
// stratified sampling treats boundary tuples.
type Grid struct {
	bounds     geom.Rect
	cols, rows int
	cellW      float64
	cellH      float64
}

// New returns a grid with the given bounds and resolution. It panics
// when cols or rows is not positive or when bounds is empty, since a
// degenerate grid would silently put every point in one cell.
func New(bounds geom.Rect, cols, rows int) *Grid {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("grid: resolution must be positive, got %dx%d", cols, rows))
	}
	if bounds.IsEmpty() {
		panic("grid: empty bounds")
	}
	g := &Grid{
		bounds: bounds,
		cols:   cols,
		rows:   rows,
	}
	g.cellW = bounds.Width() / float64(cols)
	g.cellH = bounds.Height() / float64(rows)
	// Degenerate axes (all points on a line) still need a positive step so
	// CellOf stays well-defined.
	if g.cellW == 0 {
		g.cellW = 1
	}
	if g.cellH == 0 {
		g.cellH = 1
	}
	return g
}

// Cols returns the number of columns.
func (g *Grid) Cols() int { return g.cols }

// Rows returns the number of rows.
func (g *Grid) Rows() int { return g.rows }

// Bounds returns the grid extent.
func (g *Grid) Bounds() geom.Rect { return g.bounds }

// CellOf returns the (col, row) cell indices for p, clamped to the grid.
func (g *Grid) CellOf(p geom.Point) (int, int) {
	c := int((p.X - g.bounds.MinX) / g.cellW)
	r := int((p.Y - g.bounds.MinY) / g.cellH)
	if c < 0 {
		c = 0
	}
	if c >= g.cols {
		c = g.cols - 1
	}
	if r < 0 {
		r = 0
	}
	if r >= g.rows {
		r = g.rows - 1
	}
	return c, r
}

// CellIndex returns the flat index of the cell containing p.
func (g *Grid) CellIndex(p geom.Point) int {
	c, r := g.CellOf(p)
	return r*g.cols + c
}

// CellRect returns the rectangle covered by cell (col, row).
func (g *Grid) CellRect(col, row int) geom.Rect {
	return geom.Rect{
		MinX: g.bounds.MinX + float64(col)*g.cellW,
		MinY: g.bounds.MinY + float64(row)*g.cellH,
		MaxX: g.bounds.MinX + float64(col+1)*g.cellW,
		MaxY: g.bounds.MinY + float64(row+1)*g.cellH,
	}
}
