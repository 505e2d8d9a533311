package loss

import (
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/geom"
	"repro/internal/proximity"
	"repro/internal/strtree"
)

// forceScalarExp is proximity's switch onto the math.Exp loop, so these
// tests can run both of EvalRow's paths on a CPU that has the vector one.
//
//go:linkname forceScalarExp repro/internal/proximity.forceScalarExp
var forceScalarExp bool

func testData(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		if i%5 == 0 {
			pts[i] = geom.Pt(5+rng.NormFloat64(), 5+rng.NormFloat64())
		} else {
			pts[i] = geom.Pt(rng.NormFloat64()*0.5, rng.NormFloat64()*0.5)
		}
	}
	return pts
}

func evaluator(t *testing.T, data []geom.Point, probes int) *Evaluator {
	t.Helper()
	kern, err := proximity.FromData(proximity.Gaussian, data)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(data, Options{Kernel: kern, Probes: probes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestDatasetHasLowestLoss(t *testing.T) {
	data := testData(3000, 1)
	ev := evaluator(t, data, 400)
	full, err := ev.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sub := make([]geom.Point, 100)
	for i := range sub {
		sub[i] = data[rng.Intn(len(data))]
	}
	subLoss, err := ev.Evaluate(sub)
	if err != nil {
		t.Fatal(err)
	}
	if subLoss.MedianLoss < full.MedianLoss {
		t.Errorf("subset loss %v below full-data loss %v", subLoss.MedianLoss, full.MedianLoss)
	}
	if ratio := LogLossRatio(subLoss, full); ratio < -1e-9 {
		t.Errorf("log-loss-ratio %v negative", ratio)
	}
	if r0 := LogLossRatio(full, full); math.Abs(r0) > 1e-12 {
		t.Errorf("self ratio = %v, want 0", r0)
	}
}

// TestMonotoneInSampleSize: adding points to a sample can only reduce the
// loss (Σκ grows pointwise).
func TestMonotoneInSampleSize(t *testing.T) {
	data := testData(2000, 3)
	ev := evaluator(t, data, 300)
	rng := rand.New(rand.NewSource(4))
	perm := rng.Perm(len(data))
	var prev float64 = math.Inf(1)
	for _, size := range []int{50, 200, 800, 2000} {
		sub := make([]geom.Point, size)
		for i := 0; i < size; i++ {
			sub[i] = data[perm[i]]
		}
		res, err := ev.Evaluate(sub)
		if err != nil {
			t.Fatal(err)
		}
		// Nested samples: per-probe mass grows, so the median loss cannot
		// rise (up to exact ties).
		if res.MedianLoss > prev*(1+1e-9) {
			t.Errorf("loss rose from %v to %v when growing the sample to %d", prev, res.MedianLoss, size)
		}
		prev = res.MedianLoss
	}
}

func TestDeterministicProbes(t *testing.T) {
	data := testData(1000, 5)
	kern, _ := proximity.FromData(proximity.Gaussian, data)
	ev1, err := NewEvaluator(data, Options{Kernel: kern, Probes: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := NewEvaluator(data, Options{Kernel: kern, Probes: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sub := data[:100]
	a, _ := ev1.Evaluate(sub)
	b, _ := ev2.Evaluate(sub)
	if a.MedianLoss != b.MedianLoss {
		t.Error("same seed produced different losses")
	}
}

func TestEvaluatorErrors(t *testing.T) {
	data := testData(100, 6)
	kern, _ := proximity.FromData(proximity.Gaussian, data)
	if _, err := NewEvaluator(nil, Options{Kernel: kern}); err == nil {
		t.Error("empty data: want error")
	}
	if _, err := NewEvaluator(data, Options{}); err == nil {
		t.Error("unset kernel: want error")
	}
	ev := evaluator(t, data, 100)
	if _, err := ev.Evaluate(nil); err == nil {
		t.Error("empty sample: want error")
	}
}

func TestUncoveredProbesUseLogDomain(t *testing.T) {
	// A sample far from the data leaves probes with zero double-precision
	// kernel mass; the evaluator must still produce a finite, huge loss
	// rather than +Inf or NaN (the overflow problem §VI-B2 works around).
	data := testData(500, 7)
	ev := evaluator(t, data, 200)
	far := []geom.Point{geom.Pt(1e6, 1e6)}
	res, err := ev.Evaluate(far)
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered != 0 {
		t.Errorf("coverage = %v for a far-away sample", res.Covered)
	}
	if math.IsNaN(res.LogMeanLoss) || math.IsInf(res.LogMeanLoss, 0) {
		t.Errorf("log mean loss not finite: %v", res.LogMeanLoss)
	}
	if res.LogMeanLoss < 10 {
		t.Errorf("log mean loss %v suspiciously small for an empty-looking plot", res.LogMeanLoss)
	}
	near, err := ev.Evaluate(data[:50])
	if err != nil {
		t.Fatal(err)
	}
	if near.MedianLoss >= res.MedianLoss {
		t.Error("on-data sample should have far lower loss than off-data sample")
	}
}

func TestProbesLandInDomain(t *testing.T) {
	// Probes are drawn near actual data points, not uniformly over the
	// bounding box: put all data in two far corners and check no probe
	// lands in the empty middle.
	var data []geom.Point
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		if i%2 == 0 {
			data = append(data, geom.Pt(rng.Float64(), rng.Float64()))
		} else {
			data = append(data, geom.Pt(100+rng.Float64(), 100+rng.Float64()))
		}
	}
	kern, _ := proximity.FromData(proximity.Gaussian, data)
	ev, err := NewEvaluator(data, Options{Kernel: kern, Probes: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.probes) == 0 {
		t.Fatal("no probes")
	}
	for _, p := range ev.probes {
		inLeft := p.X < 5 && p.Y < 5
		inRight := p.X > 95 && p.Y > 95
		if !inLeft && !inRight {
			t.Fatalf("probe %v landed outside the data domain", p)
		}
	}
}

func TestEvaluateRatio(t *testing.T) {
	data := testData(1500, 10)
	ev := evaluator(t, data, 300)
	ratio, s, d, err := ev.EvaluateRatio(data[:75], data)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-LogLossRatio(s, d)) > 1e-12 {
		t.Error("EvaluateRatio disagrees with LogLossRatio")
	}
	if ratio < 0 {
		t.Errorf("sample ratio %v negative", ratio)
	}
}

func TestLogMean(t *testing.T) {
	// logMean over equal entries is the entry.
	if got := logMean([]float64{3, 3, 3}); math.Abs(got-3) > 1e-12 {
		t.Errorf("logMean equal entries = %v", got)
	}
	// Dominated by the max: logMean(0, 100) ≈ 100 - log10(2).
	got := logMean([]float64{0, 100})
	want := 100 + math.Log10(0.5)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("logMean = %v, want %v", got, want)
	}
	if !math.IsNaN(logMean(nil)) {
		t.Error("logMean(nil) should be NaN")
	}
}

// TestMassesBitIdentical: every per-probe kernel mass equals, bit for
// bit, the scalar sum Σ EvalDist2(‖x-si‖²) over the probe's range-query
// neighbours in neighbour order, for two datasets, every kernel, and
// both of EvalRow's paths (the packed exp and the math.Exp loop).
func TestMassesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	uniform := make([]geom.Point, 2000)
	for i := range uniform {
		uniform[i] = geom.Pt(rng.Float64()*10, rng.Float64()*3)
	}
	defer func() { forceScalarExp = false }()
	for _, data := range [][]geom.Point{testData(3000, 1), uniform} {
		for _, kind := range []proximity.Kind{proximity.Gaussian, proximity.Epanechnikov, proximity.Tricube} {
			kern, err := proximity.FromData(kind, data)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := NewEvaluator(data, Options{Kernel: kern, Probes: 300, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, sample := range [][]geom.Point{data, data[:100]} {
				tree := strtree.Build(sample, nil)
				want := make([]float64, len(ev.probes))
				for i, x := range ev.probes {
					for _, nb := range tree.InRange(geom.RectAround(x, kern.Support()), nil) {
						want[i] += kern.EvalDist2(x.Dist2(nb.P))
					}
				}
				for _, scalar := range []bool{false, true} {
					forceScalarExp = scalar
					for i, got := range ev.masses(tree) {
						if math.Float64bits(got) != math.Float64bits(want[i]) {
							t.Fatalf("%v, %d-point sample, scalar exp %v: probe %d mass %v, scalar loop %v",
								kern, len(sample), scalar, i, got, want[i])
						}
					}
				}
			}
		}
	}
}
