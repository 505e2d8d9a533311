package vas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestDensityPassCountsSumToN(t *testing.T) {
	data := clusteredPoints(5000, 1)
	ic := NewInterchange(Options{K: 50, Kernel: testKernel()})
	for i, p := range data {
		ic.Add(p, i)
	}
	ws, err := DensityPass(ic.Sample(), ic.SampleIDs(), data)
	if err != nil {
		t.Fatal(err)
	}
	if got := ws.TotalCount(); got != int64(len(data)) {
		t.Errorf("counts sum to %d, want %d", got, len(data))
	}
	if len(ws.Points) != 50 {
		t.Errorf("weighted sample has %d points", len(ws.Points))
	}
}

func TestDensityPassNearestAssignment(t *testing.T) {
	// Hand-checkable geometry: two sample points, data on either side.
	sample := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	data := []geom.Point{
		geom.Pt(1, 0), geom.Pt(-2, 1), geom.Pt(4, 0), // nearer to (0,0)
		geom.Pt(9, 0), geom.Pt(12, -1), // nearer to (10,0)
	}
	ws, err := DensityPass(sample, []int{100, 200}, data)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Counts[0] != 3 || ws.Counts[1] != 2 {
		t.Errorf("counts = %v, want [3 2]", ws.Counts)
	}
	if ws.IDs[0] != 100 || ws.IDs[1] != 200 {
		t.Errorf("ids = %v", ws.IDs)
	}
}

func TestDensityPassMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sample := make([]geom.Point, 20)
	for i := range sample {
		sample[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	data := make([]geom.Point, 500)
	for i := range data {
		data[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	ws, err := DensityPass(sample, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, len(sample))
	for _, d := range data {
		best, bestD := 0, math.Inf(1)
		for j, s := range sample {
			if dd := d.Dist2(s); dd < bestD {
				best, bestD = j, dd
			}
		}
		want[best]++
	}
	for i := range want {
		if ws.Counts[i] != want[i] {
			t.Fatalf("counts[%d] = %d, brute force %d", i, ws.Counts[i], want[i])
		}
	}
}

func TestDensityPassErrors(t *testing.T) {
	if _, err := DensityPass(nil, nil, clusteredPoints(5, 3)); err == nil {
		t.Error("empty sample: want error")
	}
	if _, err := DensityPass(clusteredPoints(3, 4), []int{1}, nil); err == nil {
		t.Error("ids length mismatch: want error")
	}
}

func TestDensityPreservesSkew(t *testing.T) {
	// 90% of the data in one cluster: the density counts must reflect it
	// even though VAS flattens the point placement (§V's motivation).
	rng := rand.New(rand.NewSource(8))
	data := make([]geom.Point, 4000)
	for i := range data {
		if i < 3600 {
			data[i] = geom.Pt(rng.NormFloat64()*0.5, rng.NormFloat64()*0.5)
		} else {
			data[i] = geom.Pt(8+rng.NormFloat64()*0.5, rng.NormFloat64()*0.5)
		}
	}
	ic := NewInterchange(Options{K: 40, Kernel: testKernel()})
	for i, p := range data {
		ic.Add(p, i)
	}
	ws, err := DensityPass(ic.Sample(), ic.SampleIDs(), data)
	if err != nil {
		t.Fatal(err)
	}
	var left, total int64
	for i, p := range ws.Points {
		total += ws.Counts[i]
		if p.X < 4 {
			left += ws.Counts[i]
		}
	}
	frac := float64(left) / float64(total)
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("density-embedded left-cluster mass = %.3f, want ≈0.90", frac)
	}
}
