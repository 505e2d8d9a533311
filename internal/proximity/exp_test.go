package proximity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// expPaths calls f on the vector path (on a CPU that has one) and on the
// forced math.Exp loop.
func expPaths(f func(path string)) {
	defer func() { forceScalarExp = false }()
	for _, path := range []string{"asm", "scalar"} {
		forceScalarExp = path == "scalar"
		f(path)
	}
}

// sameBits reports whether got has want's bits; NaN need only map to
// NaN.
func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// expZeroEdge returns the largest x whose math.Exp is 0, near -745.133,
// by bisection on the float64 order. (Below -1075.5·ln2 ≈ -745.48 the
// scaled exponent alone is out of range; between the two the subnormal
// scaling rounds to 0.)
func expZeroEdge() float64 {
	lo, hi := -746.0, -745.0 // Exp(lo) == 0 < Exp(hi)
	for math.Nextafter(lo, 0) != hi {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			mid = math.Nextafter(lo, 0)
		}
		if math.Exp(mid) == 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// expSpecials is every boundary the vector body classifies by, the
// values math.Exp special-cases, and the float64 neighbours of each.
func expSpecials() []float64 {
	base := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		-708, -746, expZeroEdge(), 709, 7.09782712893384e+02,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, -745.5, -1075.5 * math.Ln2,
	}
	var out []float64
	for _, v := range base {
		out = append(out, v)
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
	}
	return out
}

// TestExpRowBitIdentical: on both paths, expRow returns math.Exp's bits
// for 10⁷ seeded arguments across [-1000, 710] with -Inf and NaN mixed
// in, and for every special value at every lane position of rows of
// every length up to 40 (each tail length), at unaligned starts, into a
// separate dst and in place.
func TestExpRowBitIdentical(t *testing.T) {
	if !useExpAsm {
		t.Log("no AVX2+FMA: both paths are the math.Exp loop")
	}
	var want, dst, alias []float64
	check := func(what string, src []float64) {
		t.Helper()
		want, dst = want[:0], dst[:0]
		for _, x := range src {
			want = append(want, math.Exp(x))
			dst = append(dst, 0)
		}
		expPaths(func(path string) {
			expRow(dst, src)
			alias = append(alias[:0], src...)
			expRow(alias, alias)
			for i, x := range src {
				if !sameBits(dst[i], want[i]) || !sameBits(alias[i], want[i]) {
					t.Fatalf("%s, %s: x = %v (%#016x): expRow %v / in place %v, math.Exp %v",
						path, what, x, math.Float64bits(x), dst[i], alias[i], want[i])
				}
			}
		})
	}

	rng := rand.New(rand.NewSource(44))
	const total, chunk = 10 << 20, 1 << 16
	src := make([]float64, chunk)
	for done := 0; done < total; done += chunk {
		for i := range src {
			switch u := rng.Intn(1000); {
			case u == 0:
				src[i] = math.Inf(-1)
			case u == 1:
				src[i] = math.NaN()
			default:
				src[i] = -1000 + rng.Float64()*1710
			}
		}
		check("random", src)
	}

	// Ordinary in-range values around one special, which sits at every
	// lane of rows 0..40 long, starting 0..3 lanes into a backing array
	// (so the vector loads cross 32-byte boundaries).
	specials := expSpecials()
	back := make([]float64, 44)
	for _, v := range specials {
		for off := range 4 {
			for n := range 41 {
				row := back[off : off+n]
				for j := range row {
					for i := range row {
						row[i] = -20 + rng.Float64()*25
					}
					row[j] = v
					check(fmt.Sprintf("special %v at %d of %d (+%d)", v, j, n, off), row)
				}
			}
		}
	}
	// All the specials together, in shuffled orders.
	for off := range 4 {
		row := append(make([]float64, off), specials...)[off:]
		for range 50 {
			rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
			check("specials", row)
		}
	}
}

// TestExpRowZeroAlloc: expRow and a Gaussian PairRow allocate nothing on
// either path.
func TestExpRowZeroAlloc(t *testing.T) {
	src := append(expSpecials(), -3, -0.5, -800, -20, -1, -2, -3)
	dst := make([]float64, len(src))
	k := NewGaussian(1)
	row := make([]float64, 1001)
	expPaths(func(path string) {
		if a := testing.AllocsPerRun(100, func() { expRow(dst, src) }); a != 0 {
			t.Errorf("%s: expRow: %v allocs per call, want 0", path, a)
		}
		if a := testing.AllocsPerRun(100, func() { k.PairRow(row) }); a != 0 {
			t.Errorf("%s: PairRow: %v allocs per call, want 0", path, a)
		}
	})
}

// TestPairRowXYBitIdentical: for every kind, on both paths, PairRowXY
// returns PairDist2(Dist2)'s bits, 0 past the cutoff, and writes nothing
// past len(xs). The rows mix random slots with +Inf (inactive) ones,
// put slots in the 53.2ε–54.6ε band whose κ̃ exponent lies in
// [-746, -708] (math.Exp's subnormal results, which the vector body
// hands back), put a slot exactly at the cutoff and at its float64
// neighbours, and run 0–9 and 1 001 slots at start offsets 0–3.
func TestPairRowXYBitIdentical(t *testing.T) {
	const eps = 0.7
	rng := rand.New(rand.NewSource(51))
	inf := math.Inf(1)
	back := make([]float64, 1001+8)
	check := func(what string, k Func, px, py float64, xs, ys []float64, cutoff2 float64) {
		t.Helper()
		want := make([]float64, len(xs))
		for s := range xs {
			d2 := geom.Pt(px, py).Dist2(geom.Pt(xs[s], ys[s]))
			if d2 > cutoff2 {
				d2 = inf
			}
			want[s] = k.PairDist2(d2)
		}
		expPaths(func(path string) {
			row := back[:len(xs)+4]
			for i := range row {
				row[i] = -1
			}
			k.PairRowXY(px, py, xs, ys, cutoff2, row)
			for s := range xs {
				if !sameBits(row[s], want[s]) {
					t.Fatalf("%v, %s, %s: slot %d of %d, (%v, %v) to (%v, %v) cutoff² %v: PairRowXY %v, PairDist2 %v",
						k, path, what, s, len(xs), px, py, xs[s], ys[s], cutoff2, row[s], want[s])
				}
			}
			for i := len(xs); i < len(row); i++ {
				if row[i] != -1 {
					t.Fatalf("%v, %s, %s: wrote row[%d] past %d slots", k, path, what, i, len(xs))
				}
			}
		})
	}
	// slots returns n slots starting off lanes into fresh backing arrays,
	// each from at(i).
	slots := func(n, off int, at func(i int) (x, y float64)) (xs, ys []float64) {
		xs, ys = make([]float64, n+off)[off:], make([]float64, n+off)[off:]
		for i := range xs {
			xs[i], ys[i] = at(i)
		}
		return xs, ys
	}
	for _, kind := range []Kind{Gaussian, Epanechnikov, Tricube} {
		k := New(kind, eps)
		sup2 := k.PairSupport() * k.PairSupport()
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1001} {
			for off := range 4 {
				px, py := rng.Float64()*20, rng.Float64()*20
				// Random slots over a 40ε square, one in eight inactive.
				xs, ys := slots(n, off, func(int) (float64, float64) {
					if rng.Intn(8) == 0 {
						return inf, rng.Float64() * 20
					}
					return rng.Float64() * 40 * eps, rng.Float64() * 40 * eps
				})
				for _, cutoff2 := range []float64{inf, sup2} {
					check(fmt.Sprintf("random (+%d)", off), k, px, py, xs, ys, cutoff2)
				}
				// The subnormal band, with an inactive slot every fifth.
				xs, ys = slots(n, off, func(i int) (float64, float64) {
					if i%5 == 4 {
						return inf, 0
					}
					d, a := (53.2+rng.Float64()*1.4)*eps, rng.Float64()*2*math.Pi
					return px + d*math.Cos(a), py + d*math.Sin(a)
				})
				check(fmt.Sprintf("band (+%d)", off), k, px, py, xs, ys, inf)
				if n == 0 {
					continue
				}
				// The cutoff exactly at one slot's squared distance and
				// at its neighbours.
				j := rng.Intn(n)
				for xs[j] == inf {
					xs[j] = px + rng.Float64()*eps
				}
				d2 := geom.Pt(px, py).Dist2(geom.Pt(xs[j], ys[j]))
				for _, c := range []float64{d2, math.Nextafter(d2, 0), math.Nextafter(d2, inf)} {
					check(fmt.Sprintf("cutoff at slot %d (+%d)", j, off), k, px, py, xs, ys, c)
				}
			}
		}
	}
}

// TestPairRowXYZeroAlloc: PairRowXY allocates nothing, for any kind, on
// either path.
func TestPairRowXYZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs, ys, row := make([]float64, 1001), make([]float64, 1001), make([]float64, 1001)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*60, rng.Float64()*60
	}
	xs[500] = math.Inf(1)
	for _, kind := range []Kind{Gaussian, Epanechnikov, Tricube} {
		k := New(kind, 1)
		expPaths(func(path string) {
			if a := testing.AllocsPerRun(100, func() { k.PairRowXY(30, 30, xs, ys, 36, row) }); a != 0 {
				t.Errorf("%v, %s: PairRowXY: %v allocs per call, want 0", k, path, a)
			}
		})
	}
}

// TestEvalRowBitIdentical: the row form returns exactly EvalDist2's bits
// for every kind on both paths, including 0, the support radius and
// beyond, and +Inf.
func TestEvalRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []Kind{Gaussian, Epanechnikov, Tricube} {
		k := New(kind, 0.7)
		s2 := k.Support() * k.Support()
		src := []float64{0, s2, math.Nextafter(s2, 0), math.Nextafter(s2, math.Inf(1)), math.Inf(1)}
		for range 1000 {
			// Up to 55ε, past the Gaussian's subnormal band at 37.7–38.6ε.
			d := rng.Float64() * 55 * 0.7
			src = append(src, d*d)
		}
		row := make([]float64, len(src))
		expPaths(func(path string) {
			copy(row, src)
			k.EvalRow(row)
			for i, d2 := range src {
				if want := k.EvalDist2(d2); !sameBits(row[i], want) {
					t.Fatalf("%v, %s: d2 = %v: EvalRow %v, EvalDist2 %v", k, path, d2, row[i], want)
				}
			}
		})
	}
}

// BenchmarkPairRowXY times one Interchange offer's row of κ̃: K+1 = 101
// and 1 001 slots, distances uniform over [0, 60ε) (so a few lanes fall
// in the subnormal band math.Exp settles), one +Inf inactive slot.
func BenchmarkPairRowXY(b *testing.B) {
	k := NewGaussian(1)
	for _, n := range []int{101, 1001} {
		rng := rand.New(rand.NewSource(1))
		xs, ys, row := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range xs {
			d, a := rng.Float64()*60, rng.Float64()*2*math.Pi
			xs[i], ys[i] = d*math.Cos(a), d*math.Sin(a)
		}
		xs[n/2] = math.Inf(1)
		for _, kernel := range []string{"asm", "scalar"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, kernel), func(b *testing.B) {
				if kernel == "asm" && !useExpAsm {
					b.Skip("no AVX2+FMA")
				}
				forceScalarExp = kernel == "scalar"
				defer func() { forceScalarExp = false }()
				for b.Loop() {
					k.PairRowXY(0, 0, xs, ys, math.Inf(1), row)
				}
			})
		}
	}
}

// BenchmarkExpRow times one Interchange-sized row of κ̃ exponents: K+1 =
// 101 and 1 001 lanes, distances uniform over [0, 60ε) (so a few lanes
// fall in the subnormal band math.Exp settles), one -Inf skip slot.
func BenchmarkExpRow(b *testing.B) {
	for _, n := range []int{101, 1001} {
		rng := rand.New(rand.NewSource(1))
		src := make([]float64, n)
		for i := range src {
			d := rng.Float64() * 60
			src[i] = -d * d / 4
		}
		src[n/2] = math.Inf(-1)
		dst := make([]float64, n)
		for _, kernel := range []string{"asm", "scalar"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, kernel), func(b *testing.B) {
				if kernel == "asm" && !useExpAsm {
					b.Skip("no AVX2+FMA")
				}
				forceScalarExp = kernel == "scalar"
				defer func() { forceScalarExp = false }()
				for b.Loop() {
					expRow(dst, src)
				}
			})
		}
	}
}
