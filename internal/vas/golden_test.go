package vas

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dataset"
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
