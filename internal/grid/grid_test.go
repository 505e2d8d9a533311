package grid

import (
	"testing"

	"repro/internal/geom"
)

func bounds10() geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10} }

func TestCellOfClamping(t *testing.T) {
	g := New(bounds10(), 5, 5)
	cases := []struct {
		p    geom.Point
		c, r int
	}{
		{geom.Pt(0, 0), 0, 0},
		{geom.Pt(9.99, 9.99), 4, 4},
		{geom.Pt(10, 10), 4, 4}, // max boundary clamps into last cell
		{geom.Pt(-5, 3), 0, 1},  // outside left clamps
		{geom.Pt(15, 20), 4, 4}, // outside top-right clamps
		{geom.Pt(4.999, 5.0), 2, 2},
	}
	for _, tc := range cases {
		c, r := g.CellOf(tc.p)
		if c != tc.c || r != tc.r {
			t.Errorf("CellOf(%v) = (%d,%d), want (%d,%d)", tc.p, c, r, tc.c, tc.r)
		}
	}
}

func TestCellRectTilesBounds(t *testing.T) {
	g := New(bounds10(), 4, 3)
	// The centre of every cell's rectangle (2.5 × 10/3 cells over
	// bounds10) maps back to that cell.
	for row := 0; row < 3; row++ {
		for col := 0; col < 4; col++ {
			c := geom.Pt((float64(col)+0.5)*10/4, (float64(row)+0.5)*10/3)
			gc, gr := g.CellOf(c)
			if gc != col || gr != row {
				t.Errorf("cell (%d,%d) centre %v maps to (%d,%d)", col, row, c, gc, gr)
			}
		}
	}
}

func TestDegenerateBounds(t *testing.T) {
	// All points on a vertical line: the grid must still bin them by Y.
	b := geom.Rect{MinX: 5, MinY: 0, MaxX: 5, MaxY: 10}
	g := New(b, 4, 4)
	if c, r := g.CellOf(geom.Pt(5, 2)); c != 0 || r != 0 {
		t.Errorf("CellOf(5,2) on degenerate bounds = (%d,%d), want (0,0)", c, r)
	}
	if i := g.CellIndex(geom.Pt(5, 9)); i != 3*4 {
		t.Errorf("CellIndex(5,9) on degenerate bounds = %d, want 12", i)
	}
}

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"zero cols", func() { New(bounds10(), 0, 5) }},
		{"negative rows", func() { New(bounds10(), 5, -1) }},
		{"empty bounds", func() { New(geom.EmptyRect(), 5, 5) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}
