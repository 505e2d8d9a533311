package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/loss"
	"repro/internal/proximity"
	"repro/internal/vas"
)

// This file regenerates Table II: exact solver vs Interchange vs uniform
// random on tiny datasets (N ∈ {50,60,70,80}, K = 10), reporting runtime,
// optimization objective, and Loss(S). The exact MIP+GLPK pipeline is
// substituted by the branch-and-bound solver (vas.SolveExact).

func init() {
	register("table2", runTable2)
}

// table2K is the sample size the paper fixes for the whole table.
const table2K = 10

func runTable2(sc Scale) (*Report, error) {
	r := &Report{
		ID:      "table2",
		Caption: "Loss and runtime: exact vs approximate vs random (paper Table II), K=10",
		Columns: []string{"N", "metric", "exact(B&B)", "approx. VAS", "random"},
	}
	ns := []int{50, 60, 70, 80}
	for _, n := range ns {
		// Tiny dense dataset: two overlapping Gaussians, so the pairwise
		// κ̃ terms are non-trivial at the heuristic bandwidth (the paper
		// subsamples its dense real data; a country-scale slice of N=80
		// points would have near-zero interactions everywhere and every
		// subset would tie at objective ≈ 0).
		d := dataset.Clusters("table2", n, sc.Seed+int64(n), []dataset.ClusterSpec{
			{Center: geom.Pt(-1, 0), SigmaX: 1, SigmaY: 0.8, Weight: 1.2},
			{Center: geom.Pt(1.2, 0.4), SigmaX: 0.9, SigmaY: 1.1, Weight: 0.8},
		})
		// Bandwidth extent/20, not the extent/100 heuristic: with K=10
		// the optimal spacing is ~extent/3, and at the heuristic
		// bandwidth every pair would sit beyond kernel support — all
		// subsets would tie at objective ≈ 0 and the comparison would be
		// numerically meaningless. extent/20 reproduces the paper's
		// objective magnitudes (best 0.036..0.16, random 2.25..3.72); the
		// paper gets the same effect by subsampling its tiny instances
		// from a dense region of the full corpus while keeping the
		// full-corpus ε.
		kern := proximity.New(proximity.Gaussian, geom.MaxPairwiseDist(d.Points)/20)

		// Exact. Budget exhaustion is an expected outcome at the larger N
		// — the paper's whole point is that exact search explodes (GLPK
		// needed 49 minutes at N=80); the incumbent is still reported.
		start := time.Now()
		exact, err := vas.SolveExact(context.Background(), d.Points, vas.ExactOptions{
			K: table2K, Kernel: kern, MaxNodes: 50_000_000,
		})
		if err != nil && !errors.Is(err, vas.ErrBudgetExhausted) {
			return nil, fmt.Errorf("exact N=%d: %w", n, err)
		}
		exactTime := time.Since(start)
		exactPts := gatherPoints(d.Points, exact.Indices)

		// Approximate (Interchange to convergence).
		start = time.Now()
		ic := vas.NewInterchange(vas.Options{K: table2K, Kernel: kern, Variant: vas.ES})
		vas.Converge(ic, d.Points, 64)
		approxTime := time.Since(start)
		approxPts := ic.Sample()

		// Random.
		rng := rand.New(rand.NewSource(sc.Seed + int64(n)))
		start = time.Now()
		randomPts := vas.RandomSubset(d.Points, table2K, rng.Intn)
		randomTime := time.Since(start)

		ev, err := loss.NewEvaluator(d.Points, loss.Options{Kernel: kern, Probes: sc.Probes, Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		lossOf := func(pts []geom.Point) float64 {
			res, err := ev.Evaluate(pts)
			if err != nil {
				return -1
			}
			return res.MedianLoss
		}

		r.AddRow(n, "runtime", exactTime, approxTime, randomTime)
		r.AddRow(n, "opt. objective",
			vas.Objective(kern, exactPts),
			vas.Objective(kern, approxPts),
			vas.Objective(kern, randomPts))
		r.AddRow(n, "Loss(S)", lossOf(exactPts), lossOf(approxPts), lossOf(randomPts))
		if !exact.Proven {
			r.Notes = append(r.Notes, fmt.Sprintf("N=%d: exact search hit its node budget; objective is an incumbent bound", n))
		}
	}
	r.Notes = append(r.Notes,
		"paper shape: exact runtime explodes with N (1m -> 49m for 50 -> 80) while Interchange and random stay ~0s; Interchange's objective is near the optimum, random's is ~2 orders worse",
	)
	return r, nil
}

func gatherPoints(pts []geom.Point, idx []int) []geom.Point {
	out := make([]geom.Point, len(idx))
	for i, j := range idx {
		out[i] = pts[j]
	}
	return out
}
