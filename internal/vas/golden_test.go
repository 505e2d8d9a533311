package vas

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/proximity"
)

// interchangeGolden pins the exact output of one Converge run: the sample
// ids in slot order (as an FNV-64a hash of "id," text plus the length), the
// cumulative swap count, and the objective after the pass's
// RecomputeObjective. The values were recorded from the index-backed ES+Loc
// (dynamic R-tree plus responsibility heap) that the pair-support cutoff in
// activate/deactivate replaced, and from ES and NoES at the same time.
type interchangeGolden struct {
	variant   Variant
	k, n      int // sample size and stream prefix length
	passes    int
	length    int
	hash      uint64
	swaps     int
	objective float64
}

var interchangeGoldens = []interchangeGolden{
	{ESLoc, 400, 20_000, 1, 400, 0xdc04bcab74805408, 3579, 3287.2481676627594},
	{ESLoc, 400, 20_000, 2, 400, 0xd1a3e06609b5d37d, 3944, 3286.4363319652111},
	{ES, 400, 20_000, 1, 400, 0xd70c88b848de3a46, 3606, 3287.2460712485936},
	{ES, 400, 20_000, 2, 400, 0x8bfac12645fc56e4, 3902, 3286.382652661207},
	// NoES is O(K²) per point, so it is pinned on a smaller run.
	{NoES, 100, 5_000, 1, 100, 0xbfc5ffb9b5a2213c, 720, 205.99360370425924},
	{ES, 100, 5_000, 1, 100, 0x13288030d3cac106, 720, 205.99360370425975},
}

func hashIDs(ids []int) uint64 {
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%d,", id)
	}
	return h.Sum64()
}

// TestInterchangeGolden: every variant reproduces its recorded sample
// exactly. Ids and swap counts must be identical; the objective is allowed
// 1e-12 relative so a platform with a different math.Exp cannot fail it
// while selecting the same ids.
func TestInterchangeGolden(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 20_000, Seed: 42})
	kern, err := proximity.FromData(proximity.Gaussian, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range interchangeGoldens {
		name := fmt.Sprintf("%v/K=%d/N=%d/passes=%d", g.variant, g.k, g.n, g.passes)
		t.Run(name, func(t *testing.T) {
			ic := NewInterchange(Options{K: g.k, Kernel: kern, Variant: g.variant})
			Converge(ic, d.Points[:g.n], g.passes)
			ids := ic.SampleIDs()
			if len(ids) != g.length || hashIDs(ids) != g.hash {
				t.Errorf("ids: len %d hash %#x, want len %d hash %#x", len(ids), hashIDs(ids), g.length, g.hash)
			}
			if ic.Replacements() != g.swaps {
				t.Errorf("swaps = %d, want %d", ic.Replacements(), g.swaps)
			}
			if obj := ic.Objective(); math.Abs(obj-g.objective) > 1e-12*g.objective {
				t.Errorf("objective = %.17g, want %.17g", obj, g.objective)
			}
		})
	}
}

// TestInterchangeKernelEquivalence: the goldens only exercise the
// Gaussian, but the row kernel has one loop per kind. For every kind, ES
// (decide from one row) and NoES (recompute each slot from scratch) make
// the same swaps to the same sample points, and for the compact kernels,
// whose pair support is their support, ES+Loc equals ES exactly: ids,
// slot order and swaps.
//
// The stream is integers on a line with many exact duplicates
// (responsibility ties), streamed twice (in-sample ids re-offered). Every
// κ̃ is exact in float64, and so is every sum: the compact kernels' ε = 2
// makes their support 8, and the Gaussian's ε = 1/64 makes every pair at
// distance ≥ 1 underflow to 0. On rounded sums ES's incremental
// responsibilities and NoES's fresh ones may break an exact tie
// differently. And NoES puts a newcomer in the evicted slot, ES in the
// spare one, so of coincident members tied for eviction each evicts a
// different id: hence points, not ids.
func TestInterchangeKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Pt(float64(rng.Intn(48)), 0)
	}
	xs := func(ic *Interchange) []int {
		var out []int
		for _, p := range ic.Sample() {
			out = append(out, int(p.X))
		}
		sort.Ints(out)
		return out
	}
	for _, kc := range []struct {
		kind proximity.Kind
		eps  float64
	}{{proximity.Gaussian, 1.0 / 64}, {proximity.Epanechnikov, 2}, {proximity.Tricube, 2}} {
		kern := proximity.New(kc.kind, kc.eps)
		run := func(v Variant) *Interchange {
			ic := NewInterchange(Options{K: 15, Kernel: kern, Variant: v})
			Converge(ic, pts, 2)
			return ic
		}
		es, noes := run(ES), run(NoES)
		if es.Replacements() == 0 {
			t.Fatalf("%v: no swaps, the stream tests nothing", kern)
		}
		if !equalInts(xs(noes), xs(es)) || noes.Replacements() != es.Replacements() {
			t.Errorf("%v: no-es points %v (%d swaps), es points %v (%d swaps)",
				kern, xs(noes), noes.Replacements(), xs(es), es.Replacements())
		}
		if kc.kind == proximity.Gaussian {
			continue
		}
		if loc := run(ESLoc); !equalInts(loc.SampleIDs(), es.SampleIDs()) || loc.Replacements() != es.Replacements() {
			t.Errorf("%v: es+loc ids %v (%d swaps), es ids %v (%d swaps)",
				kern, loc.SampleIDs(), loc.Replacements(), es.SampleIDs(), es.Replacements())
		}
	}
}
