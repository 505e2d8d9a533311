// Package proximity implements the proximity functions κ used by the VAS loss
// and the derived pairwise objective κ̃ (paper §III).
//
// The paper uses the Gaussian kernel κ(x, s) = exp(-‖x-s‖²/2ε²) and shows
// that after the second-order Taylor expansion the pairwise term κ̃(si, sj)
// collapses to the same functional form with bandwidth √2·ε; since constant
// factors do not change the argmin, any decreasing convex function of the
// distance is admissible, and the paper states it is "sufficient to use any
// proximity function directly in place of κ̃". This package therefore exposes
// a small family of admissible kernels plus the bandwidth heuristic from
// footnote 2 (ε ≈ maxPairwiseDist/100).
package proximity

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Kind enumerates the supported proximity kernels.
type Kind int

const (
	// Gaussian is exp(-d²/2ε²), the kernel used throughout the paper.
	Gaussian Kind = iota
	// Epanechnikov is max(0, 1-(d/ε')²) with ε' = 4ε, a compactly
	// supported convex-on-support alternative used in the kernel ablation.
	Epanechnikov
	// Tricube is max(0, (1-(d/ε')³)³) with ε' = 4ε, another compactly
	// supported alternative.
	Tricube
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Epanechnikov:
		return "epanechnikov"
	case Tricube:
		return "tricube"
	default:
		return fmt.Sprintf("proximity.Kind(%d)", int(k))
	}
}

// ParseKind converts a kernel name to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "gaussian":
		return Gaussian, nil
	case "epanechnikov":
		return Epanechnikov, nil
	case "tricube":
		return Tricube, nil
	}
	return 0, fmt.Errorf("kernel: unknown kind %q", s)
}

// DefaultBandwidthDivisor is the divisor in the paper's bandwidth heuristic:
// ε ≈ max pairwise distance / 100 (§III footnote 2).
const DefaultBandwidthDivisor = 100

// Func is a proximity function over the 2D visualization space with a fixed
// bandwidth. The zero value is not usable; construct with New.
type Func struct {
	kind    Kind
	eps     float64 // bandwidth ε
	inv2e2  float64 // 1/(2ε²), precomputed for the Gaussian
	support float64 // distance beyond which the kernel is negligible/zero
}

// New returns a proximity function of the given kind and bandwidth eps.
// It panics if eps is not a positive finite number, since a non-positive
// bandwidth silently degenerates every downstream computation.
func New(kind Kind, eps float64) Func {
	if !(eps > 0) || math.IsInf(eps, 1) {
		panic(fmt.Sprintf("kernel: bandwidth must be positive and finite, got %v", eps))
	}
	f := Func{kind: kind, eps: eps, inv2e2: 1 / (2 * eps * eps)}
	switch kind {
	case Gaussian:
		// exp(-d²/2ε²) < 1.2e-7 when d > 8ε/√2 ≈ 5.66ε; the paper notes
		// the value is 1.12e-7 at distance 4 (with ε=1), i.e. ~5.66σ of
		// the implied √2·ε std-dev. Use 6ε as the negligibility radius.
		f.support = 6 * eps
	case Epanechnikov, Tricube:
		f.support = 4 * eps
	default:
		panic(fmt.Sprintf("kernel: unknown kind %d", int(kind)))
	}
	return f
}

// NewGaussian returns the paper's kernel with bandwidth eps.
func NewGaussian(eps float64) Func { return New(Gaussian, eps) }

// FromData returns a kernel of the given kind with bandwidth chosen by the
// paper's heuristic: ε = maxPairwiseDist(pts)/DefaultBandwidthDivisor.
// It returns an error when the points are all coincident (zero extent),
// because no bandwidth can be inferred.
func FromData(kind Kind, pts []geom.Point) (Func, error) {
	d := geom.MaxPairwiseDist(pts)
	if d <= 0 {
		return Func{}, fmt.Errorf("kernel: cannot infer bandwidth from %d coincident or empty points", len(pts))
	}
	return New(kind, d/DefaultBandwidthDivisor), nil
}

// Bandwidth returns ε.
func (f Func) Bandwidth() float64 { return f.eps }

// Support returns the radius beyond which κ is negligible (Gaussian) or
// exactly zero (compact kernels).
func (f Func) Support() float64 { return f.support }

// EvalDist2 returns κ for a squared distance d2, so hot loops reuse an
// already-computed squared distance.
func (f Func) EvalDist2(d2 float64) float64 {
	switch f.kind {
	case Gaussian:
		return math.Exp(-d2 * f.inv2e2)
	case Epanechnikov:
		return f.epanechnikov(d2)
	case Tricube:
		return f.tricube(d2)
	default:
		panic("kernel: invalid Func (use proximity.New)")
	}
}

// EvalRow replaces each squared distance in row by its EvalDist2, bit for
// bit, switching on the kind once per row. The Gaussian row writes each
// exponent in place and takes all the exponentials in one expRow call.
func (f Func) EvalRow(row []float64) {
	switch f.kind {
	case Epanechnikov:
		for i, d2 := range row {
			row[i] = f.epanechnikov(d2)
		}
	case Tricube:
		for i, d2 := range row {
			row[i] = f.tricube(d2)
		}
	default:
		for i, d2 := range row {
			row[i] = -d2 * f.inv2e2
		}
		expRow(row, row)
	}
}

func (f Func) epanechnikov(d2 float64) float64 { return max(0, 1-d2/(f.support*f.support)) }

func (f Func) tricube(d2 float64) float64 {
	u := math.Sqrt(d2) / f.support
	c := max(0, 1-u*u*u)
	return c * c * c
}

// gaussianPair is κ̃: bandwidth √2ε doubles ε², halving the exponent.
func (f Func) gaussianPair(d2 float64) float64 { return math.Exp(f.pairExponent(d2)) }

// pairExponent is the argument gaussianPair passes to math.Exp, shared
// with PairRow so the two cannot round it differently.
func (f Func) pairExponent(d2 float64) float64 { return -d2 * f.inv2e2 / 2 }

// Pair returns κ̃(si, sj), the pairwise objective term. For the Gaussian the
// paper derives κ̃(si,sj) = exp(-‖si-sj‖²/(2·(√2ε)²)) up to constants; since
// constants do not affect the minimizer, and the paper notes any proximity
// function may stand in for κ̃, Pair evaluates the kernel with bandwidth
// √2·ε for the Gaussian and the kernel itself for compact kernels.
func (f Func) Pair(p, q geom.Point) float64 { return f.PairDist2(p.Dist2(q)) }

// PairDist2 is Pair for an already-computed squared distance.
func (f Func) PairDist2(d2 float64) float64 {
	if f.kind == Gaussian {
		return f.gaussianPair(d2)
	}
	return f.EvalDist2(d2)
}

// PairRow replaces each squared distance in row by its PairDist2, bit for
// bit, switching on the kind once per row instead of once per pair. +Inf
// maps to 0 for every kind, so a caller marks a pair that must not count.
// The Gaussian row writes each exponent in place and takes all the
// exponentials in one expRow call, four lanes at a time on a CPU with
// AVX2 and FMA; a +Inf distance becomes the exponent -Inf, whose
// exponential is 0.
func (f Func) PairRow(row []float64) {
	switch f.kind {
	case Epanechnikov:
		for i, d2 := range row {
			row[i] = f.epanechnikov(d2)
		}
	case Tricube:
		for i, d2 := range row {
			row[i] = f.tricube(d2)
		}
	default:
		for i, d2 := range row {
			row[i] = f.pairExponent(d2)
		}
		expRow(row, row)
	}
}

// PairRowXY sets row[s] to κ̃ between (px, py) and (xs[s], ys[s]) for
// every s < len(xs): PairDist2 of the squared distance geom.Point.Dist2
// returns, bit for bit, or 0 where that distance exceeds cutoff2 (+Inf
// cuts nothing). A slot at x = +Inf is +Inf away from a finite point,
// so its value is 0 on every path. ys and row hold at least len(xs).
//
// On a CPU with AVX2 and FMA the Gaussian row is one pass, four slots at
// a time: distance, cutoff, exponent and exp. A group holding a lane the
// packed exp cannot settle, and the last len%4 slots, take PairDist2.
// Other kinds and other CPUs fill the row with squared distances and
// call PairRow.
func (f Func) PairRowXY(px, py float64, xs, ys []float64, cutoff2 float64, row []float64) {
	row, ys = row[:len(xs)], ys[:len(xs)]
	if f.kind != Gaussian || !useExpAsm || forceScalarExp {
		for s, x := range xs {
			row[s] = cutDist2(px, py, x, ys[s], cutoff2)
		}
		f.PairRow(row)
		return
	}
	i := 0
	for n := len(xs) &^ 3; i < n; {
		i += pairRowXYAsm(px, py, xs[i:n], ys[i:n], cutoff2, -f.inv2e2, row[i:n])
		for end := min(i+4, n); i < end; i++ {
			row[i] = f.PairDist2(cutDist2(px, py, xs[i], ys[i], cutoff2))
		}
	}
	for ; i < len(xs); i++ {
		row[i] = f.PairDist2(cutDist2(px, py, xs[i], ys[i], cutoff2))
	}
}

// cutDist2 is the squared distance from (px, py) to (x, y), or +Inf when
// it exceeds cutoff2 (so a pair exactly at the cutoff still counts).
func cutDist2(px, py, x, y, cutoff2 float64) float64 {
	if d2 := geom.Pt(px, py).Dist2(geom.Pt(x, y)); !(d2 > cutoff2) {
		return d2
	}
	return math.Inf(1)
}

// PairSupport returns the truncation radius for Pair: the ES+Loc variant
// of Interchange counts a pair farther apart than this as zero (§IV-B
// "Speed-Up using the Locality of Proximity function"). For the Gaussian
// the pair kernel κ̃ at distance 6ε is exp(-9) ≈ 1.2e-4, negligible
// against the responsibility magnitudes Interchange compares, so the
// plain support radius is used.
func (f Func) PairSupport() float64 {
	return f.support
}

// String implements fmt.Stringer.
func (f Func) String() string {
	return fmt.Sprintf("%s(eps=%g)", f.kind, f.eps)
}
