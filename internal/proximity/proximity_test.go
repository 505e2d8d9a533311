package proximity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestGaussianValues(t *testing.T) {
	k := NewGaussian(1)
	if v := k.EvalDist2(0); v != 1 {
		t.Errorf("kernel at zero distance = %v, want 1", v)
	}
	// exp(-d²/2) at d=1: e^-0.5.
	want := math.Exp(-0.5)
	if v := k.EvalDist2(1); math.Abs(v-want) > 1e-15 {
		t.Errorf("kernel at d=1 = %v, want %v", v, want)
	}
	// The paper's negligibility observation (value 1.12e-7 "at distance
	// 4") is exp(-16) in its normalization; in ours that value occurs at
	// d = √32·ε ≈ 5.66ε.
	v := k.EvalDist2(32)
	if math.Abs(v-1.125e-7)/1.125e-7 > 0.01 {
		t.Errorf("kernel at d=√32 = %g, want ≈1.125e-7", v)
	}
}

func TestKernelsDecreasing(t *testing.T) {
	for _, kind := range []Kind{Gaussian, Epanechnikov, Tricube} {
		k := New(kind, 1)
		prev := math.Inf(1)
		for d := 0.0; d <= 8; d += 0.05 {
			v := k.EvalDist2(d * d)
			if v > prev+1e-15 {
				t.Fatalf("%v: kernel increases at d=%v (%v > %v)", kind, d, v, prev)
			}
			if v < 0 {
				t.Fatalf("%v: negative kernel value %v at d=%v", kind, v, d)
			}
			prev = v
		}
	}
}

func TestCompactSupportExact(t *testing.T) {
	for _, kind := range []Kind{Epanechnikov, Tricube} {
		k := New(kind, 1)
		s := k.Support()
		if v := k.EvalDist2(s * s * 1.0001); v != 0 {
			t.Errorf("%v: non-zero value %v beyond support", kind, v)
		}
		if v := k.EvalDist2(s * s * 0.25); v <= 0 {
			t.Errorf("%v: zero value inside support", kind)
		}
	}
}

func TestGaussianSupportNegligible(t *testing.T) {
	k := NewGaussian(2.5)
	s := k.Support()
	if v := k.EvalDist2(s * s); v > 2e-8 {
		t.Errorf("value at support radius = %g, want negligible", v)
	}
	// Pair kernel at its pruning radius: exp(-9) ≈ 1.2e-4, negligible
	// relative to the responsibility magnitudes Interchange compares.
	ps := k.PairSupport()
	if v := k.PairDist2(ps * ps); v > 1.3e-4 {
		t.Errorf("pair value at pair support = %g, want <= exp(-9)", v)
	}
}

func TestPairIsWiderGaussian(t *testing.T) {
	// κ̃ is the Gaussian with bandwidth √2·ε: Pair(d) == Eval(d/√2).
	k := NewGaussian(3)
	for _, d := range []float64{0, 1, 2, 5, 10} {
		got := k.PairDist2(d * d)
		want := k.EvalDist2(d * d / 2)
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("Pair(d=%v) = %v, want Eval(d/√2) = %v", d, got, want)
		}
	}
	// For compact kernels Pair falls back to the kernel itself.
	e := New(Epanechnikov, 3)
	if e.PairDist2(4) != e.EvalDist2(4) {
		t.Error("compact kernel Pair != Eval")
	}
	if e.PairSupport() != e.Support() {
		t.Error("compact kernel PairSupport != Support")
	}
}

// TestPairRowBitIdentical: the row form returns exactly PairDist2's bits
// for every kind, including 0, the support radius and beyond, and maps
// +Inf (the row's "does not count" mark) to 0.
func TestPairRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []Kind{Gaussian, Epanechnikov, Tricube} {
		k := New(kind, 0.7)
		s := k.PairSupport()
		row := []float64{0, s * s, math.Nextafter(s*s, 0), math.Nextafter(s*s, math.Inf(1)), math.Inf(1)}
		for range 200 {
			row = append(row, rng.Float64()*2*s*s)
		}
		want := make([]float64, len(row))
		for i, d2 := range row {
			want[i] = k.PairDist2(d2)
		}
		k.PairRow(row)
		for i := range row {
			if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: row[%d] = %v, PairDist2 = %v", kind, i, row[i], want[i])
			}
		}
		if row[4] != 0 {
			t.Errorf("%v: PairRow(+Inf) = %v, want 0", kind, row[4])
		}
	}
}

func TestPairSymmetricProperty(t *testing.T) {
	k := NewGaussian(1.7)
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		a := geom.Pt(math.Mod(ax, 100), math.Mod(ay, 100))
		b := geom.Pt(math.Mod(bx, 100), math.Mod(by, 100))
		return k.Pair(a, b) == k.Pair(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromData(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(30, 40)} // diagonal 50
	k, err := FromData(Gaussian, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := k.Bandwidth(), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("bandwidth = %v, want %v (diag/100)", got, want)
	}
	if _, err := FromData(Gaussian, []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1)}); err == nil {
		t.Error("coincident points: want error")
	}
	if _, err := FromData(Gaussian, nil); err == nil {
		t.Error("empty points: want error")
	}
}

func TestNewPanicsOnBadBandwidth(t *testing.T) {
	for _, eps := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v): want panic", eps)
				}
			}()
			New(Gaussian, eps)
		}()
	}
}

func TestParseKind(t *testing.T) {
	for _, name := range []string{"gaussian", "epanechnikov", "tricube"} {
		k, err := ParseKind(name)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("round trip %q -> %q", name, k.String())
		}
	}
	if _, err := ParseKind("cosine"); err == nil {
		t.Error("unknown kind: want error")
	}
}

func TestStringer(t *testing.T) {
	k := New(Gaussian, 0.25)
	if s := k.String(); s != "gaussian(eps=0.25)" {
		t.Errorf("String = %q", s)
	}
}

func anyBad(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
