package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func linePoints(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i), 0)
	}
	return pts
}

func TestReservoirSize(t *testing.T) {
	r := NewReservoir(10, 1)
	sampleSmall := Run(NewReservoir(10, 1), linePoints(5))
	if len(sampleSmall) != 5 {
		t.Errorf("fewer points than k: sample size %d, want 5", len(sampleSmall))
	}
	s := Run(r, linePoints(1000))
	if len(s) != 10 {
		t.Errorf("sample size %d, want 10", len(s))
	}
	if r.Seen() != 1000 {
		t.Errorf("Seen = %d", r.Seen())
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Inclusion probability must be k/n for every position, including the
	// stream tail (the classic reservoir bug is biasing against late
	// items).
	const n, k, trials = 200, 20, 3000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(k, int64(trial))
		for i, p := range linePoints(n) {
			r.Add(p, i)
		}
		for _, id := range r.SampleIDs() {
			counts[id]++
		}
	}
	want := float64(k) / float64(n)
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-want) > 0.03 {
			t.Errorf("position %d included with frequency %.3f, want %.3f±0.03", i, frac, want)
		}
	}
}

func TestReservoirDeterministicBySeed(t *testing.T) {
	a := Run(NewReservoir(15, 7), linePoints(500))
	b := Run(NewReservoir(15, 7), linePoints(500))
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different samples")
		}
	}
	c := Run(NewReservoir(15, 8), linePoints(500))
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples (suspicious)")
	}
}

func TestReservoirPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for k=0")
		}
	}()
	NewReservoir(0, 1)
}

func TestReservoirIDsMatchPoints(t *testing.T) {
	pts := linePoints(300)
	r := NewReservoir(12, 2)
	Run(r, pts)
	s := r.Sample()
	ids := r.SampleIDs()
	for i := range s {
		if !pts[ids[i]].Equal(s[i]) {
			t.Fatalf("sample[%d] does not match its id", i)
		}
	}
}

// TestStratifiedPaperExample reproduces the allocation example from
// §VI-B1: two bins, K=100; if the second bin has only 10 points, the
// first contributes 90 and the second 10.
func TestStratifiedPaperExample(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 1}
	s := NewStratified(100, bounds, 2, 1, 3)
	rng := rand.New(rand.NewSource(4))
	id := 0
	// Bin 1 (x in [0,1)): 500 points. Bin 2 (x in [1,2]): 10 points.
	for i := 0; i < 500; i++ {
		s.Add(geom.Pt(rng.Float64()*0.99, rng.Float64()), id)
		id++
	}
	for i := 0; i < 10; i++ {
		s.Add(geom.Pt(1.01+rng.Float64()*0.98, rng.Float64()), id)
		id++
	}
	sample := s.Sample()
	if len(sample) != 100 {
		t.Fatalf("sample size %d, want 100", len(sample))
	}
	var bin1, bin2 int
	for _, p := range sample {
		if p.X < 1 {
			bin1++
		} else {
			bin2++
		}
	}
	if bin1 != 90 || bin2 != 10 {
		t.Errorf("allocation = (%d, %d), want (90, 10)", bin1, bin2)
	}
}

func TestStratifiedBalancedWhenAbundant(t *testing.T) {
	// With plentiful points everywhere, each bin contributes K/bins.
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
	s := NewStratifiedSquare(64, bounds, 4, 5) // 16 bins, 4 each
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 8000; i++ {
		s.Add(geom.Pt(rng.Float64()*4, rng.Float64()*4), i)
	}
	sample := s.Sample()
	if len(sample) != 64 {
		t.Fatalf("sample size %d", len(sample))
	}
	counts := map[int]int{}
	for _, p := range sample {
		cx := int(p.X)
		cy := int(p.Y)
		if cx > 3 {
			cx = 3
		}
		if cy > 3 {
			cy = 3
		}
		counts[cy*4+cx]++
	}
	for bin, c := range counts {
		if c != 4 {
			t.Errorf("bin %d contributed %d points, want 4", bin, c)
		}
	}
}

func TestStratifiedFewerPointsThanK(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	s := NewStratifiedSquare(100, bounds, 3, 7)
	for i := 0; i < 30; i++ {
		s.Add(geom.Pt(float64(i%10)/10, float64(i/10)/3), i)
	}
	if got := len(s.Sample()); got != 30 {
		t.Errorf("sample size %d, want all 30", got)
	}
}

func TestStratifiedSampleIsStable(t *testing.T) {
	// Repeated Sample() calls must agree (the shuffle is keyed, not
	// stateful).
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	s := NewStratifiedSquare(20, bounds, 2, 8)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		s.Add(geom.Pt(rng.Float64(), rng.Float64()), i)
	}
	a := s.Sample()
	b := s.Sample()
	if len(a) != len(b) {
		t.Fatal("unstable sample size")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("Sample() is not repeatable")
		}
	}
	// IDs and points stay parallel across the two accessors.
	ids := s.SampleIDs()
	if len(ids) != len(a) {
		t.Fatal("ids length mismatch")
	}
}

func TestStratifiedIDsMatchPoints(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 1}
	pts := linePoints(1000)
	s := NewStratifiedSquare(50, bounds, 5, 10)
	Run(s, pts)
	sample := s.Sample()
	ids := s.SampleIDs()
	for i := range sample {
		if !pts[ids[i]].Equal(sample[i]) {
			t.Fatalf("sample[%d] does not match pts[ids[%d]]", i, i)
		}
	}
}

func TestStratifiedBinStats(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 1}
	s := NewStratified(10, bounds, 2, 1, 11)
	for i := 0; i < 7; i++ {
		s.Add(geom.Pt(0.5, 0.5), i)
	}
	for i := 0; i < 3; i++ {
		s.Add(geom.Pt(1.5, 0.5), 100+i)
	}
	// K covers both bins, so the sample keeps every retained point:
	// 7 from the left bin, 3 from the right.
	var left, right int
	for _, p := range s.Sample() {
		if p.X < 1 {
			left++
		} else {
			right++
		}
	}
	if left != 7 || right != 3 {
		t.Errorf("per-bin sample counts = [%d %d], want [7 3]", left, right)
	}

	// The bin grid: boundaries and out-of-bounds points clamp into the
	// border bins.
	bounds10 := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	t.Run("CellOfClamping", func(t *testing.T) {
		g := newBinGrid(bounds10, 5, 5)
		for _, tc := range []struct {
			p    geom.Point
			c, r int
		}{
			{geom.Pt(0, 0), 0, 0},
			{geom.Pt(9.99, 9.99), 4, 4},
			{geom.Pt(10, 10), 4, 4}, // max boundary clamps into last bin
			{geom.Pt(-5, 3), 0, 1},  // outside left clamps
			{geom.Pt(15, 20), 4, 4}, // outside top-right clamps
			{geom.Pt(4.999, 5.0), 2, 2},
		} {
			if i := g.cellIndex(tc.p); i != tc.r*5+tc.c {
				t.Errorf("cellIndex(%v) = %d, want (%d,%d)", tc.p, i, tc.c, tc.r)
			}
		}
	})
	// The centre of every bin of a non-square grid maps back to it.
	t.Run("CellRectTilesBounds", func(t *testing.T) {
		g := newBinGrid(bounds10, 4, 3)
		for row := 0; row < 3; row++ {
			for col := 0; col < 4; col++ {
				c := geom.Pt((float64(col)+0.5)*10/4, (float64(row)+0.5)*10/3)
				if i := g.cellIndex(c); i != row*4+col {
					t.Errorf("bin (%d,%d) centre %v maps to %d", col, row, c, i)
				}
			}
		}
	})
	// All points on a vertical line: the grid still bins them by Y.
	t.Run("DegenerateBounds", func(t *testing.T) {
		g := newBinGrid(geom.Rect{MinX: 5, MinY: 0, MaxX: 5, MaxY: 10}, 4, 4)
		if i := g.cellIndex(geom.Pt(5, 2)); i != 0 {
			t.Errorf("cellIndex(5,2) on degenerate bounds = %d, want 0", i)
		}
		if i := g.cellIndex(geom.Pt(5, 9)); i != 3*4 {
			t.Errorf("cellIndex(5,9) on degenerate bounds = %d, want 12", i)
		}
	})
	t.Run("NewPanics", func(t *testing.T) {
		for name, f := range map[string]func(){
			"zero cols":     func() { NewStratified(10, bounds10, 0, 5, 1) },
			"negative rows": func() { NewStratified(10, bounds10, 5, -1, 1) },
			"empty bounds":  func() { NewStratified(10, geom.EmptyRect(), 5, 5, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: want panic", name)
					}
				}()
				f()
			}()
		}
	})
}

func TestParseMethod(t *testing.T) {
	for _, ok := range []string{"uniform", "stratified", "vas", "vas+density"} {
		if _, err := ParseMethod(ok); err != nil {
			t.Errorf("ParseMethod(%q): %v", ok, err)
		}
	}
	if _, err := ParseMethod("systematic"); err == nil {
		t.Error("unknown method: want error")
	}
}
