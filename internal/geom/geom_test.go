package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d2 := Pt(0, 0).Dist2(Pt(3, 4)); d2 != 25 {
		t.Errorf("Dist2 = %v, want 25", d2)
	}
	if d := Pt(1, 1).Dist(Pt(1, 1)); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyNaNInf(ax, ay, bx, by) {
			return true
		}
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDist2ConsistentWithDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyNaNInf(ax, ay, bx, by) {
			return true
		}
		// Keep magnitudes sane to avoid overflow in the square.
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		d := a.Dist(b)
		return math.Abs(d*d-a.Dist2(b)) <= 1e-6*(1+a.Dist2(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(Pt(5, -1), Pt(-2, 7))
	want := Rect{MinX: -2, MinY: -1, MaxX: 5, MaxY: 7}
	if r != want {
		t.Errorf("NewRect = %v, want %v", r, want)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Width() != 0 || e.Height() != 0 {
		t.Errorf("empty rect has non-zero metrics: w=%v h=%v", e.Width(), e.Height())
	}
	r := Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 3}
	if got := e.Union(r); got != r {
		t.Errorf("empty ∪ r = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r ∪ empty = %v, want %v", got, r)
	}
	if e.Intersects(r) {
		t.Error("empty intersects r")
	}
	if e.Contains(Pt(0, 0)) {
		t.Error("empty contains a point")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 5}
	for _, tc := range []struct {
		p    Point
		want bool
	}{
		{Pt(5, 2), true},
		{Pt(0, 0), true},  // boundary inclusive
		{Pt(10, 5), true}, // far corner inclusive
		{Pt(10.1, 5), false},
		{Pt(-0.1, 2), false},
		{Pt(5, 5.01), false},
	} {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{MinX: 2, MinY: 2, MaxX: 6, MaxY: 6}, true},
		{Rect{MinX: 4, MinY: 4, MaxX: 8, MaxY: 8}, true}, // corner touch
		{Rect{MinX: 5, MinY: 0, MaxX: 6, MaxY: 4}, false},
		{Rect{MinX: 0, MinY: 5, MaxX: 4, MaxY: 6}, false},
		{Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, true}, // containment
	}
	for _, tc := range cases {
		if got := a.Intersects(tc.b); got != tc.want {
			t.Errorf("Intersects(%v) = %v, want %v", tc.b, got, tc.want)
		}
		if got := tc.b.Intersects(a); got != tc.want {
			t.Errorf("Intersects symmetric(%v) = %v, want %v", tc.b, got, tc.want)
		}
	}
}

func TestUnionContainsBothProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := randRect(rng)
		b := randRect(rng)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatalf("union %v does not contain %v and %v", u, a, b)
		}
		// Union is the *smallest*: its corners come from a or b.
		if u.MinX != math.Min(a.MinX, b.MinX) || u.MaxY != math.Max(a.MaxY, b.MaxY) {
			t.Fatalf("union %v is not tight for %v, %v", u, a, b)
		}
	}
}

func TestUnionPointAndBounds(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(-2, 5), Pt(4, -3)}
	b := Bounds(pts)
	want := Rect{MinX: -2, MinY: -3, MaxX: 4, MaxY: 5}
	if b != want {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("bounds %v missing %v", b, p)
		}
	}
	if !Bounds(nil).IsEmpty() {
		t.Error("Bounds(nil) not empty")
	}
}

func TestRectAround(t *testing.T) {
	r := RectAround(Pt(1, 2), 0.5)
	want := Rect{MinX: 0.5, MinY: 1.5, MaxX: 1.5, MaxY: 2.5}
	if r != want {
		t.Errorf("RectAround = %v, want %v", r, want)
	}
}

func TestMaxPairwiseDist(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(3, 4), Pt(1, 1)}
	// Bounding-box diagonal = dist((0,0),(3,4)) = 5 here.
	if d := MaxPairwiseDist(pts); d != 5 {
		t.Errorf("MaxPairwiseDist = %v, want 5", d)
	}
	if d := ExactMaxPairwiseDist(pts); d != 5 {
		t.Errorf("ExactMaxPairwiseDist = %v, want 5", d)
	}
	if d := MaxPairwiseDist(nil); d != 0 {
		t.Errorf("MaxPairwiseDist(nil) = %v", d)
	}
	// The bound dominates the exact value.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		var ps []Point
		for i := 0; i < 50; i++ {
			ps = append(ps, Pt(rng.NormFloat64(), rng.NormFloat64()))
		}
		if MaxPairwiseDist(ps) < ExactMaxPairwiseDist(ps)-1e-9 {
			t.Fatal("bounding-box diagonal below exact max pairwise distance")
		}
	}
}

func TestLerpClamp(t *testing.T) {
	if v := Lerp(2, 6, 0.25); v != 3 {
		t.Errorf("Lerp = %v", v)
	}
	if v := Clamp(5, 0, 3); v != 3 {
		t.Errorf("Clamp high = %v", v)
	}
	if v := Clamp(-1, 0, 3); v != 0 {
		t.Errorf("Clamp low = %v", v)
	}
	if v := Clamp(2, 0, 3); v != 2 {
		t.Errorf("Clamp mid = %v", v)
	}
}

func TestZeroWidthRectIsNotEmpty(t *testing.T) {
	// A degenerate (line/point) rect still contains its points.
	r := Rect{MinX: 1, MinY: 2, MaxX: 1, MaxY: 5}
	if r.IsEmpty() {
		t.Fatal("degenerate rect reported empty")
	}
	if !r.Contains(Pt(1, 3)) {
		t.Error("degenerate rect missing its own point")
	}
}

func randRect(rng *rand.Rand) Rect {
	a := Pt(rng.NormFloat64()*10, rng.NormFloat64()*10)
	b := Pt(rng.NormFloat64()*10, rng.NormFloat64()*10)
	return NewRect(a, b)
}

func anyNaNInf(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
