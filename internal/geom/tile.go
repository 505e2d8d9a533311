package geom

import "fmt"

// Tile addressing follows the slippy-map convention over an arbitrary
// data-space extent instead of Web Mercator: at zoom level z the bounds
// rectangle is divided into a 2^z × 2^z grid of equal tiles. Tile x grows
// with data X (west → east) and tile y grows downward from the top of the
// extent (y = 0 covers MaxY), matching image coordinates so a tile server
// can hand the rectangles straight to the renderer.

// MaxTileZoom bounds the zoom level so 1<<z stays well inside an int and
// tile extents stay representable; 30 gives a 2^30-way split per axis,
// far below float64 resolution limits for any realistic dataset.
const MaxTileZoom = 30

// TileCount returns the number of tiles per axis at zoom z.
func TileCount(z int) int { return 1 << uint(z) }

// checkTile validates a (z, x, y) address.
func checkTile(z, x, y int) error {
	if z < 0 || z > MaxTileZoom {
		return fmt.Errorf("geom: tile zoom %d out of range [0,%d]", z, MaxTileZoom)
	}
	n := TileCount(z)
	if x < 0 || x >= n || y < 0 || y >= n {
		return fmt.Errorf("geom: tile (%d,%d) out of range [0,%d) at zoom %d", x, y, n, z)
	}
	return nil
}

// TileRect returns the sub-rectangle of bounds covered by tile (z, x, y).
// It errors on an empty bounds or an out-of-range address.
func TileRect(bounds Rect, z, x, y int) (Rect, error) {
	if bounds.IsEmpty() {
		return Rect{}, fmt.Errorf("geom: tile over empty bounds")
	}
	if err := checkTile(z, x, y); err != nil {
		return Rect{}, err
	}
	n := float64(TileCount(z))
	w := bounds.Width() / n
	h := bounds.Height() / n
	return Rect{
		MinX: bounds.MinX + float64(x)*w,
		MaxX: bounds.MinX + float64(x+1)*w,
		MinY: bounds.MaxY - float64(y+1)*h,
		MaxY: bounds.MaxY - float64(y)*h,
	}, nil
}

// TileForPoint returns the address of the tile containing p at zoom z.
// Points outside bounds are clamped to the edge tiles.
func TileForPoint(bounds Rect, p Point, z int) (x, y int, err error) {
	if bounds.IsEmpty() {
		return 0, 0, fmt.Errorf("geom: tile over empty bounds")
	}
	if err := checkTile(z, 0, 0); err != nil {
		return 0, 0, err
	}
	n := TileCount(z)
	fx := 0.0
	if bounds.Width() > 0 {
		fx = (p.X - bounds.MinX) / bounds.Width()
	}
	fy := 0.0
	if bounds.Height() > 0 {
		fy = (bounds.MaxY - p.Y) / bounds.Height()
	}
	x = int(Clamp(fx*float64(n), 0, float64(n-1)))
	y = int(Clamp(fy*float64(n), 0, float64(n-1)))
	return x, y, nil
}
