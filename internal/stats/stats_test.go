package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestMedianQuantile(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if q := Quantile(xs, 0); q != 10 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 50 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 20 {
		t.Errorf("q25 = %v", q)
	}
	if !math.IsNaN(Quantile(xs, 1.5)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("invalid quantile inputs should yield NaN")
	}
	// Quantile must not mutate its input.
	orig := []float64{9, 1, 5}
	Quantile(orig, 0.5)
	if orig[0] != 9 || orig[1] != 1 || orig[2] != 5 {
		t.Error("Quantile mutated input")
	}
}

func TestMedianWithinRangeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Median(clean)
		return m >= slices.Min(clean)-1e-9 && m <= Max(clean)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if m := Max(xs); m != 7 {
		t.Errorf("Max = %v", m)
	}
	if !math.IsNaN(Max(nil)) {
		t.Error("empty Max should be NaN")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single pair: want error")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("zero variance: want error")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform has |ρ| = 1.
	xs := []float64{1, 5, 2, 9, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // monotone but very non-linear
	}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Errorf("Spearman of monotone transform = %v, want 1", rho)
	}
}

func TestSpearmanTies(t *testing.T) {
	// Tied values get averaged ranks; verify against a hand computation.
	xs := []float64{1, 2, 2, 3}
	ys := []float64{10, 20, 20, 30}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Errorf("Spearman with aligned ties = %v, want 1", rho)
	}
}

func TestSpearmanAntitone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 30)
	ys := make([]float64, 30)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = -xs[i]*3 + 7 // strictly decreasing transform
	}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho+1) > 1e-12 {
		t.Errorf("Spearman antitone = %v, want -1", rho)
	}
}

func TestSpearmanPValue(t *testing.T) {
	// Strong correlation with decent n: tiny p.
	if p := SpearmanPValue(-0.85, 12); p > 0.001 {
		t.Errorf("p(-0.85, n=12) = %v, want < 0.001", p)
	}
	// Weak correlation: large p.
	if p := SpearmanPValue(0.1, 12); p < 0.5 {
		t.Errorf("p(0.1, n=12) = %v, want > 0.5", p)
	}
	// Degenerate inputs.
	if p := SpearmanPValue(0.5, 2); p != 1 {
		t.Errorf("p with n=2 = %v, want 1", p)
	}
	if p := SpearmanPValue(1, 10); p != 0 {
		t.Errorf("p with rho=1 = %v, want 0", p)
	}
}

func TestRegIncBetaAgainstKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := regIncBeta(2, 3, 0.4) + regIncBeta(3, 2, 0.6); math.Abs(got-1) > 1e-10 {
		t.Errorf("symmetry violated: %v", got)
	}
}

func TestStudentTSF(t *testing.T) {
	// For large df, t approaches the normal: P(T > 1.96) ≈ 0.025.
	if p := studentTSF(1.96, 1000); math.Abs(p-0.025) > 0.002 {
		t.Errorf("P(T>1.96, df=1000) = %v, want ≈0.025", p)
	}
	// P(T > 0) = 0.5 for any df.
	if p := studentTSF(0, 7); math.Abs(p-0.5) > 1e-10 {
		t.Errorf("P(T>0) = %v", p)
	}
}

func TestRanksAveragesTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestRanksPermutationProperty(t *testing.T) {
	// Without ties, ranks are a permutation of 1..n consistent with sort
	// order.
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	r := ranks(xs)
	sorted := append([]float64(nil), r...)
	sort.Float64s(sorted)
	for i := range sorted {
		if sorted[i] != float64(i+1) {
			t.Fatalf("ranks are not 1..n: %v", sorted)
		}
	}
}
