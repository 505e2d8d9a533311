package geom

import (
	"math"
	"testing"
)

func TestTileRectZoomZero(t *testing.T) {
	b := Rect{MinX: -10, MinY: 0, MaxX: 30, MaxY: 20}
	got, err := TileRect(b, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Errorf("z=0 tile = %v, want full bounds %v", got, b)
	}
}

func TestTileRectQuadrants(t *testing.T) {
	b := Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
	// Slippy convention: y=0 is the TOP row (MaxY side).
	topLeft, err := TileRect(b, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Rect{MinX: 0, MinY: 2, MaxX: 2, MaxY: 4}
	if topLeft != want {
		t.Errorf("tile (1,0,0) = %v, want %v", topLeft, want)
	}
	bottomRight, err := TileRect(b, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want = Rect{MinX: 2, MinY: 0, MaxX: 4, MaxY: 2}
	if bottomRight != want {
		t.Errorf("tile (1,1,1) = %v, want %v", bottomRight, want)
	}
}

func TestTileRectTiling(t *testing.T) {
	// Tiles at any zoom must partition the bounds: union equals bounds,
	// adjacent tiles share edges exactly.
	b := Rect{MinX: -3, MinY: 1, MaxX: 9, MaxY: 11}
	for z := 0; z <= 4; z++ {
		n := TileCount(z)
		u := EmptyRect()
		var area float64
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				r, err := TileRect(b, z, x, y)
				if err != nil {
					t.Fatal(err)
				}
				u = u.Union(r)
				area += r.Width() * r.Height()
			}
		}
		if u != b {
			t.Errorf("z=%d union = %v, want %v", z, u, b)
		}
		if want := b.Width() * b.Height(); math.Abs(area-want) > 1e-9*want {
			t.Errorf("z=%d total area = %g, want %g", z, area, want)
		}
	}
}

func TestTileRectErrors(t *testing.T) {
	b := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	cases := []struct{ z, x, y int }{
		{-1, 0, 0}, {MaxTileZoom + 1, 0, 0},
		{1, 2, 0}, {1, 0, 2}, {1, -1, 0}, {1, 0, -1},
	}
	for _, c := range cases {
		if _, err := TileRect(b, c.z, c.x, c.y); err == nil {
			t.Errorf("TileRect(z=%d,x=%d,y=%d): want error", c.z, c.x, c.y)
		}
	}
	if _, err := TileRect(EmptyRect(), 0, 0, 0); err == nil {
		t.Error("empty bounds: want error")
	}
}

func TestTileForPointRoundTrip(t *testing.T) {
	b := Rect{MinX: -5, MinY: -5, MaxX: 5, MaxY: 5}
	pts := []Point{Pt(-5, -5), Pt(0, 0), Pt(4.9, -4.9), Pt(5, 5), Pt(-1.3, 2.7)}
	for z := 0; z <= 6; z++ {
		for _, p := range pts {
			x, y, err := TileForPoint(b, p, z)
			if err != nil {
				t.Fatal(err)
			}
			r, err := TileRect(b, z, x, y)
			if err != nil {
				t.Fatalf("TileForPoint(%v, z=%d) = (%d,%d): %v", p, z, x, y, err)
			}
			if !r.Contains(p) {
				t.Errorf("z=%d: point %v not in its tile rect %v", z, p, r)
			}
		}
	}
	// Outside points clamp to edge tiles.
	x, y, err := TileForPoint(b, Pt(100, -100), 2)
	if err != nil {
		t.Fatal(err)
	}
	if x != 3 || y != 3 {
		t.Errorf("clamped tile = (%d,%d), want (3,3)", x, y)
	}
}
