// Package stats provides the small statistical toolkit the evaluation
// harness needs: means, medians and quantiles, and Spearman rank
// correlation (Fig. 7 reports ρ = −0.85 between log-loss-ratio and user
// success).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a statistic needs more observations
// than were supplied.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs without modifying it, or NaN for an empty
// slice. The paper's loss evaluation (§VI-B2) uses the median of per-point
// losses because the mean overflows double precision on bad samples.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile of xs (0 <= q <= 1) using linear
// interpolation between closest ranks. It copies xs, leaving it unmodified.
// Returns NaN for empty input or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if len(cp) == 1 {
		return cp[0]
	}
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Max returns the largest element of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ranks assigns fractional ranks (1-based, ties get the average rank), the
// convention required for Spearman correlation with ties.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i) + float64(j)) / 2.0 // 0-based
		for k := i; k <= j; k++ {
			r[idx[k]] = avg + 1 // 1-based
		}
		i = j + 1
	}
	return r
}

// Pearson returns the Pearson correlation coefficient of the paired samples
// xs and ys. It returns an error when the lengths differ, fewer than two
// pairs are supplied, or either sample has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns Spearman's rank correlation coefficient ρ of the paired
// samples. ρ is the Pearson correlation of the rank vectors, which handles
// ties correctly. Fig. 7 of the paper reports ρ = −0.85 between a sample's
// log-loss-ratio and the user success ratio.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	return Pearson(ranks(xs), ranks(ys))
}

// SpearmanPValue returns an approximate two-sided p-value for the hypothesis
// ρ=0 using the t-distribution approximation t = ρ·√((n−2)/(1−ρ²)), valid
// for n ≳ 10. It returns 1 when the statistic is undefined.
func SpearmanPValue(rho float64, n int) float64 {
	if n < 3 || math.Abs(rho) >= 1 {
		if math.Abs(rho) >= 1 && n >= 3 {
			return 0
		}
		return 1
	}
	t := rho * math.Sqrt(float64(n-2)/(1-rho*rho))
	return 2 * studentTSF(math.Abs(t), float64(n-2))
}

// studentTSF returns P(T > t) for Student's t with v degrees of freedom,
// via the regularized incomplete beta function.
func studentTSF(t, v float64) float64 {
	x := v / (v + t*t)
	return 0.5 * regIncBeta(v/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a,b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betacf(a, b, x float64) float64 {
	const maxIter = 300
	const eps = 3e-14
	const fpmin = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
