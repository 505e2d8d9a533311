package dataset

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestGeolifeLikeBasics(t *testing.T) {
	d := GeolifeLike(GeolifeOptions{N: 10_000, Seed: 1})
	if d.Len() != 10_000 {
		t.Fatalf("Len = %d", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Values) != d.Len() {
		t.Fatalf("values length %d", len(d.Values))
	}
	if d.Name != "geolife-like" {
		t.Errorf("Name = %q", d.Name)
	}
}

func TestGeolifeLikeDeterministic(t *testing.T) {
	a := GeolifeLike(GeolifeOptions{N: 2000, Seed: 7})
	b := GeolifeLike(GeolifeOptions{N: 2000, Seed: 7})
	for i := range a.Points {
		if a.Points[i] != b.Points[i] || a.Values[i] != b.Values[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := GeolifeLike(GeolifeOptions{N: 2000, Seed: 8})
	if a.Points[0] == c.Points[0] && a.Points[1] == c.Points[1] {
		t.Error("different seeds produced identical prefixes (suspicious)")
	}
}

// TestGeolifeLikeSkew checks the property the reproduction depends on: the
// bounding box is huge (travel points) while almost all mass concentrates
// near Beijing — the regime where stratified sampling degenerates.
func TestGeolifeLikeSkew(t *testing.T) {
	d := GeolifeLike(GeolifeOptions{N: 50_000, Seed: 2})
	bounds := d.Bounds()
	if bounds.Width() < 15 || bounds.Height() < 8 {
		t.Errorf("extent too small for the travel-point blow-up: %v", bounds)
	}
	core := geom.RectAround(geom.Pt(beijingLon, beijingLat), 3)
	inCore := 0
	for _, p := range d.Points {
		if core.Contains(p) {
			inCore++
		}
	}
	frac := float64(inCore) / float64(d.Len())
	if frac < 0.9 {
		t.Errorf("only %.3f of the mass near Beijing, want >= 0.9", frac)
	}
	// But not everything: the far points must exist.
	if inCore == d.Len() {
		t.Error("no travel points generated")
	}
}

func TestGeolifeLikeAltitudeSignal(t *testing.T) {
	// Altitude must correlate with distance from the centre so the
	// regression user task has signal.
	d := GeolifeLike(GeolifeOptions{N: 20_000, Seed: 3})
	c := geom.Pt(beijingLon, beijingLat)
	var nearSum, nearN, farSum, farN float64
	for i, p := range d.Points {
		dist := p.Dist(c)
		switch {
		case dist < 0.5:
			nearSum += d.Values[i]
			nearN++
		case dist > 3:
			farSum += d.Values[i]
			farN++
		}
	}
	if nearN == 0 || farN == 0 {
		t.Fatal("degenerate distance strata")
	}
	if farSum/farN <= nearSum/nearN {
		t.Errorf("altitude does not rise with distance: near %v, far %v", nearSum/nearN, farSum/farN)
	}
}

func TestGeolifeLikePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for N=0")
		}
	}()
	GeolifeLike(GeolifeOptions{N: 0})
}

func TestSPLOM(t *testing.T) {
	s := NewSPLOM(SPLOMOptions{N: 5000, Seed: 4})
	if s.N() != 5000 {
		t.Fatalf("N = %d", s.N())
	}
	if len(s.Cols) != SPLOMColumns {
		t.Fatalf("columns = %d", len(s.Cols))
	}
	d := s.XY(0, 1)
	if d.Len() != 5000 {
		t.Fatal("projection length")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Single Gaussian: mean near 0, no heavy outliers beyond ~6 sigma.
	var sum float64
	for _, p := range d.Points {
		sum += p.X
	}
	mean := sum / float64(d.Len())
	if math.Abs(mean) > 2 {
		t.Errorf("column mean %v far from 0", mean)
	}
}

func TestSPLOMXYPanics(t *testing.T) {
	s := NewSPLOM(SPLOMOptions{N: 10, Seed: 5})
	defer func() {
		if recover() == nil {
			t.Error("want panic for out-of-range column")
		}
	}()
	s.XY(0, 9)
}

func TestClusters(t *testing.T) {
	d := Clusters("two", 10_000, 6, []ClusterSpec{
		{Center: geom.Pt(-5, 0), SigmaX: 1, SigmaY: 1, Weight: 3},
		{Center: geom.Pt(5, 0), SigmaX: 1, SigmaY: 1, Weight: 1},
	})
	if d.Len() != 10_000 {
		t.Fatalf("Len = %d", d.Len())
	}
	var left int
	for _, p := range d.Points {
		if p.X < 0 {
			left++
		}
	}
	frac := float64(left) / float64(d.Len())
	if math.Abs(frac-0.75) > 0.03 {
		t.Errorf("weight-3 cluster holds %.3f of mass, want 0.75±0.03", frac)
	}
}

func TestClustersCorrelation(t *testing.T) {
	d := Clusters("rho", 20_000, 7, []ClusterSpec{
		{Center: geom.Pt(0, 0), SigmaX: 1, SigmaY: 1, Rho: 0.9, Weight: 1},
	})
	// Sample correlation should be near 0.9.
	var sx, sy, sxy, sxx, syy float64
	n := float64(d.Len())
	for _, p := range d.Points {
		sx += p.X
		sy += p.Y
	}
	mx, my := sx/n, sy/n
	for _, p := range d.Points {
		dx, dy := p.X-mx, p.Y-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	rho := sxy / math.Sqrt(sxx*syy)
	if math.Abs(rho-0.9) > 0.03 {
		t.Errorf("sample correlation %v, want 0.9±0.03", rho)
	}
}

func TestClusterStudyDatasets(t *testing.T) {
	sets := ClusterStudyDatasets(3000, 8)
	if len(sets) != 4 {
		t.Fatalf("got %d datasets", len(sets))
	}
	wantK := []int{2, 2, 1, 1}
	for i, s := range sets {
		if s.TrueClusters != wantK[i] {
			t.Errorf("dataset %d: true clusters %d, want %d", i, s.TrueClusters, wantK[i])
		}
		if s.Len() != 3000 {
			t.Errorf("dataset %d: %d points", i, s.Len())
		}
		if err := s.Validate(); err != nil {
			t.Errorf("dataset %d: %v", i, err)
		}
	}
	// The separated two-Gaussian dataset must actually be bimodal in x.
	sep := sets[0]
	var left, right int
	for _, p := range sep.Points {
		if p.X < 0 {
			left++
		} else {
			right++
		}
	}
	if left == 0 || right == 0 {
		t.Error("separated dataset is not bimodal")
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	d := &Dataset{Name: "bad", Points: []geom.Point{geom.Pt(math.NaN(), 0)}}
	if err := d.Validate(); err == nil {
		t.Error("NaN point: want error")
	}
	d2 := &Dataset{Name: "bad2", Points: []geom.Point{geom.Pt(0, 0)}, Values: []float64{1, 2}}
	if err := d2.Validate(); err == nil {
		t.Error("values length mismatch: want error")
	}
}
