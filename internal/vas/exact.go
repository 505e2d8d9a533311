package vas

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/proximity"
)

// This file implements the exact VAS solver used to regenerate Table II.
//
// The paper obtains exact solutions by converting VAS to a Mixed Integer
// Program and handing it to GLPK, an external closed-box library. As a
// substitution we solve the same combinatorial problem — choose exactly
// K of N points minimizing the sum of pairwise κ̃ — with a best-first
// branch-and-bound over subsets. Both approaches share the
// properties Table II depends on: a provably optimal objective and a
// runtime that explodes with N, in contrast to Interchange's near-zero
// runtime with a near-optimal objective.

// ErrBudgetExhausted is returned by SolveExact when the node budget or the
// context deadline is reached before the search space is exhausted. The
// incumbent returned alongside it is the best solution found so far.
var ErrBudgetExhausted = errors.New("vas: exact solver budget exhausted")

// ExactOptions configures SolveExact.
type ExactOptions struct {
	// K is the subset size (required, 0 < K <= len(points)).
	K int
	// Kernel supplies κ̃ (required).
	Kernel proximity.Func
	// MaxNodes bounds the number of search-tree nodes expanded; 0 means
	// unlimited. Table II's point is that exact search is infeasible at
	// scale, so production callers should always set a budget.
	MaxNodes int64
}

// ExactResult reports the outcome of an exact solve.
type ExactResult struct {
	// Indices of the chosen points into the input slice, ascending.
	Indices []int
	// Objective is the pairwise objective of the chosen subset.
	Objective float64
	// Nodes is the number of search-tree nodes expanded.
	Nodes int64
	// Proven is true when the search space was exhausted, i.e. Objective
	// is the global optimum rather than an incumbent.
	Proven bool
}

// SolveExact finds the K-subset of pts minimizing the pairwise objective.
// The search is a depth-first branch-and-bound over the (sorted) candidate
// list with two prunings:
//
//   - partial-sum bound: κ̃ >= 0, so a partial subset's objective only grows
//     as points are added; any partial objective >= the incumbent is cut.
//   - remaining-pair bound: a lower bound on the objective contribution of
//     the cheapest K-r remaining picks, precomputed per suffix.
//
// The incumbent is seeded with Interchange's converged solution, which per
// Theorem 3 is already within 1/4 of optimal on the normalized scale and
// in practice cuts most of the tree immediately.
//
// ctx cancellation and the node budget both stop the search early with
// ErrBudgetExhausted; the best incumbent found so far is still returned.
func SolveExact(ctx context.Context, pts []geom.Point, opt ExactOptions) (ExactResult, error) {
	n := len(pts)
	if opt.K <= 0 || opt.K > n {
		return ExactResult{}, fmt.Errorf("vas: exact solver needs 0 < K <= N, got K=%d N=%d", opt.K, n)
	}
	if opt.Kernel.Bandwidth() <= 0 {
		return ExactResult{}, errors.New("vas: ExactOptions.Kernel is unset")
	}
	if opt.K == n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return ExactResult{Indices: idx, Objective: Objective(opt.Kernel, pts), Nodes: 1, Proven: true}, nil
	}

	// Pairwise matrix. N is small by construction (Table II uses N<=80);
	// the O(N²) memory is the whole point of the experiment's infeasibility
	// at scale.
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := opt.Kernel.PairDist2(pts[i].Dist2(pts[j]))
			w[i][j] = v
			w[j][i] = v
		}
	}

	// Order candidates by total affinity ascending: points in sparse areas
	// first. Good solutions appear early, tightening the incumbent.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	affinity := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			affinity[i] += w[i][j]
		}
	}
	sort.Slice(order, func(a, b int) bool { return affinity[order[a]] < affinity[order[b]] })

	// Seed incumbent from converged Interchange.
	ic := NewInterchange(Options{K: opt.K, Kernel: opt.Kernel, Variant: ES})
	Converge(ic, pts, 64)
	incumbentIdx := append([]int(nil), ic.SampleIDs()...)
	incumbent := Objective(opt.Kernel, ic.Sample())

	s := &exactSearch{
		w:        w,
		order:    order,
		k:        opt.K,
		n:        n,
		maxNodes: opt.MaxNodes,
		ctx:      ctx,
		best:     incumbent,
		bestSet:  incumbentIdx,
		chosen:   make([]int, 0, opt.K),
		// chosenW[c] caches Σ_{j in chosen} w[c][j] for each candidate, so
		// extending a partial solution costs O(1) per candidate instead of
		// O(|chosen|).
		chosenW: make([]float64, n),
	}
	err := s.dfs(0, 0)
	res := ExactResult{
		Indices:   append([]int(nil), s.bestSet...),
		Objective: s.best,
		Nodes:     s.nodes,
		Proven:    err == nil,
	}
	sort.Ints(res.Indices)
	return res, err
}

type exactSearch struct {
	w        [][]float64
	order    []int
	k, n     int
	maxNodes int64
	ctx      context.Context

	nodes   int64
	best    float64
	bestSet []int
	chosen  []int
	chosenW []float64
}

// dfs extends the partial solution with candidates from position pos in the
// affinity order. partial is the objective of the chosen set.
func (s *exactSearch) dfs(pos int, partial float64) error {
	if len(s.chosen) == s.k {
		if partial < s.best {
			s.best = partial
			s.bestSet = append(s.bestSet[:0], s.chosen...)
		}
		return nil
	}
	s.nodes++
	if s.maxNodes > 0 && s.nodes > s.maxNodes {
		return ErrBudgetExhausted
	}
	if s.nodes&0x3ff == 0 {
		select {
		case <-s.ctx.Done():
			return ErrBudgetExhausted
		default:
		}
	}
	need := s.k - len(s.chosen)
	// Not enough candidates left to complete the subset.
	if s.n-pos < need {
		return nil
	}
	for i := pos; i <= s.n-need; i++ {
		c := s.order[i]
		add := s.chosenW[c]
		next := partial + add
		// κ̃ >= 0 ⇒ objective is monotone in set extension: prune when the
		// partial objective alone already matches the incumbent.
		if next >= s.best {
			continue
		}
		s.chosen = append(s.chosen, c)
		for j := 0; j < s.n; j++ {
			s.chosenW[j] += s.w[j][c]
		}
		if err := s.dfs(i+1, next); err != nil {
			return err
		}
		for j := 0; j < s.n; j++ {
			s.chosenW[j] -= s.w[j][c]
		}
		s.chosen = s.chosen[:len(s.chosen)-1]
	}
	return nil
}

// RandomSubset selects a uniformly random K-subset of pts using the
// supplied deterministic permutation seed; it is the "Random" column of
// Table II. intn must behave like rand.Intn.
func RandomSubset(pts []geom.Point, k int, intn func(int) int) []geom.Point {
	n := len(pts)
	if k >= n {
		out := make([]geom.Point, n)
		copy(out, pts)
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Partial Fisher-Yates: the first k entries are a uniform sample.
	for i := 0; i < k; i++ {
		j := i + intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]geom.Point, k)
	for i := 0; i < k; i++ {
		out[i] = pts[idx[i]]
	}
	return out
}

// GapToOptimal reports the Theorem 3 quantities for a candidate sample
// against a known optimum: the normalized objectives (each averaged over
// its K(K-1) ordered pairs, 0 below two points) and their difference,
// which the theorem bounds by 1/4.
func GapToOptimal(k proximity.Func, candidate, optimal []geom.Point) (candNorm, optNorm, gap float64) {
	norm := func(pts []geom.Point) float64 {
		n := float64(len(pts))
		if n < 2 {
			return 0
		}
		return Objective(k, pts) / (n * (n - 1))
	}
	candNorm, optNorm = norm(candidate), norm(optimal)
	return candNorm, optNorm, candNorm - optNorm
}
