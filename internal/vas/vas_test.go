package vas

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/proximity"
)

func testKernel() proximity.Func { return proximity.NewGaussian(0.5) }

func clusteredPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		// Two dense clusters plus a sparse band, so the optimizer has
		// real decisions to make.
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			pts[i] = geom.Pt(rng.NormFloat64()*0.3, rng.NormFloat64()*0.3)
		case 5, 6, 7, 8:
			pts[i] = geom.Pt(5+rng.NormFloat64()*0.3, rng.NormFloat64()*0.3)
		default:
			pts[i] = geom.Pt(rng.Float64()*5, 3+rng.Float64())
		}
	}
	return pts
}

func TestNewInterchangePanics(t *testing.T) {
	if r := catchPanic(func() { NewInterchange(Options{K: 0, Kernel: testKernel()}) }); r == nil {
		t.Error("K=0: want panic")
	}
	if r := catchPanic(func() { NewInterchange(Options{K: 5}) }); r == nil {
		t.Error("unset kernel: want panic")
	}
}

func catchPanic(f func()) (r interface{}) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestFillPhase(t *testing.T) {
	ic := NewInterchange(Options{K: 5, Kernel: testKernel()})
	pts := clusteredPoints(5, 1)
	for i, p := range pts {
		ic.Add(p, i)
	}
	s := ic.Sample()
	if len(s) != 5 {
		t.Fatalf("sample size = %d", len(s))
	}
	ids := ic.SampleIDs()
	sort.Ints(ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("fill phase should keep the first K points, ids = %v", ids)
		}
	}
	// With fewer than K points offered, the sample is whatever was seen.
	ic2 := NewInterchange(Options{K: 10, Kernel: testKernel()})
	ic2.Add(geom.Pt(1, 1), 0)
	if len(ic2.Sample()) != 1 {
		t.Error("partial fill should return the points seen so far")
	}
}

// TestObjectiveNeverIncreases is the Theorem 2 consequence: every Add
// either performs a valid replacement (objective strictly decreases) or
// leaves S unchanged.
func TestObjectiveNeverIncreases(t *testing.T) {
	for _, variant := range []Variant{NoES, ES} {
		ic := NewInterchange(Options{K: 12, Kernel: testKernel(), Variant: variant})
		pts := clusteredPoints(400, 2)
		var prev float64
		for i, p := range pts {
			ic.Add(p, i)
			if i < 12 {
				prev = ic.Objective()
				continue
			}
			cur := ic.Objective()
			if cur > prev+1e-9 {
				t.Fatalf("%v: objective increased at point %d: %v -> %v", variant, i, prev, cur)
			}
			prev = cur
		}
	}
}

// TestIncrementalObjectiveMatchesBruteForce verifies the O(1)-maintained
// objective equals the from-scratch pairwise sum.
func TestIncrementalObjectiveMatchesBruteForce(t *testing.T) {
	for _, variant := range []Variant{NoES, ES} {
		ic := NewInterchange(Options{K: 10, Kernel: testKernel(), Variant: variant})
		pts := clusteredPoints(300, 3)
		for i, p := range pts {
			ic.Add(p, i)
			if i%50 == 0 {
				want := Objective(testKernel(), ic.Sample())
				if got := ic.Objective(); math.Abs(got-want) > 1e-6*(1+want) {
					t.Fatalf("%v at %d: incremental %v, brute force %v", variant, i, got, want)
				}
			}
		}
	}
}

// TestVariantsAgree: NoES and ES implement the same replacement rule, so
// on the same stream they must produce identical samples. ESLoc truncates
// kernel tails, so its objective must be within a small tolerance.
func TestVariantsAgree(t *testing.T) {
	pts := clusteredPoints(600, 4)
	kern := testKernel()
	samples := map[Variant][]int{}
	for _, v := range []Variant{NoES, ES, ESLoc} {
		ic := NewInterchange(Options{K: 15, Kernel: kern, Variant: v})
		for i, p := range pts {
			ic.Add(p, i)
		}
		ids := ic.SampleIDs()
		sort.Ints(ids)
		samples[v] = ids
	}
	if !equalInts(samples[NoES], samples[ES]) {
		t.Errorf("NoES and ES disagree:\n%v\n%v", samples[NoES], samples[ES])
	}
	// ESLoc: compare objective quality, not exact membership.
	objES := objectiveOfIDs(kern, pts, samples[ES])
	objLoc := objectiveOfIDs(kern, pts, samples[ESLoc])
	if objLoc > objES*1.05+1e-9 {
		t.Errorf("ESLoc objective %v much worse than ES %v", objLoc, objES)
	}
}

func objectiveOfIDs(k proximity.Func, pts []geom.Point, ids []int) float64 {
	sel := make([]geom.Point, len(ids))
	for i, id := range ids {
		sel[i] = pts[id]
	}
	return Objective(k, sel)
}

// TestExpandShrinkEquivalentToBestSwap checks Theorem 2 directly: after an
// Add, the resulting set must match the best single-swap decision computed
// by brute force on the previous set.
func TestExpandShrinkEquivalentToBestSwap(t *testing.T) {
	kern := testKernel()
	rng := rand.New(rand.NewSource(5))
	const k = 6
	ic := NewInterchange(Options{K: k, Kernel: kern})
	var current []geom.Point
	var currentIDs []int
	for i := 0; i < 200; i++ {
		p := geom.Pt(rng.NormFloat64()*2, rng.NormFloat64()*2)
		if i < k {
			ic.Add(p, i)
			current = append(current, p)
			currentIDs = append(currentIDs, i)
			continue
		}
		// Brute force: would swapping p for some member decrease the
		// objective, and if so which swap does Expand/Shrink make?
		// Theorem 2: it evicts the max-responsibility element of S+{p}.
		expanded := append(append([]geom.Point(nil), current...), p)
		expandedIDs := append(append([]int(nil), currentIDs...), i)
		worst, worstRsp := -1, math.Inf(-1)
		for j := range expanded {
			var rsp float64
			for l := range expanded {
				if l != j {
					rsp += kern.Pair(expanded[j], expanded[l])
				}
			}
			if rsp > worstRsp {
				worst, worstRsp = j, rsp
			}
		}
		wantPts := append([]geom.Point(nil), expanded...)
		wantIDs := append([]int(nil), expandedIDs...)
		wantPts = append(wantPts[:worst], wantPts[worst+1:]...)
		wantIDs = append(wantIDs[:worst], wantIDs[worst+1:]...)

		ic.Add(p, i)
		gotIDs := ic.SampleIDs()
		sort.Ints(gotIDs)
		sortedWant := append([]int(nil), wantIDs...)
		sort.Ints(sortedWant)
		if !equalInts(gotIDs, sortedWant) {
			t.Fatalf("point %d: Expand/Shrink produced %v, brute force says %v", i, gotIDs, sortedWant)
		}
		current, currentIDs = wantPts, wantIDs
	}
}

func TestRecomputeObjectiveRepairsDrift(t *testing.T) {
	ic := NewInterchange(Options{K: 20, Kernel: testKernel()})
	pts := clusteredPoints(2000, 6)
	for i, p := range pts {
		ic.Add(p, i)
	}
	want := Objective(testKernel(), ic.Sample())
	got := ic.RecomputeObjective()
	if math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("RecomputeObjective = %v, brute force = %v", got, want)
	}
	if math.Abs(ic.Objective()-want) > 1e-9*(1+want) {
		t.Error("Objective() not updated by RecomputeObjective")
	}
}

func TestConvergeReachesFixedPoint(t *testing.T) {
	pts := clusteredPoints(300, 7)
	kern := testKernel()
	ic := NewInterchange(Options{K: 8, Kernel: kern})
	passes := Converge(ic, pts, 50)
	if passes == 50 && ic.PassSwaps() != 0 {
		t.Fatalf("did not converge in 50 passes (last pass swaps: %d)", ic.PassSwaps())
	}
	// At the fixed point, no single swap can improve the objective.
	sample := ic.Sample()
	ids := map[int]bool{}
	for _, id := range ic.SampleIDs() {
		ids[id] = true
	}
	obj := Objective(kern, sample)
	for i, p := range pts {
		if ids[i] {
			continue
		}
		for j := range sample {
			trial := append([]geom.Point(nil), sample...)
			trial[j] = p
			if Objective(kern, trial) < obj-1e-9 {
				t.Fatalf("fixed point violated: swapping in point %d improves %v -> %v",
					i, obj, Objective(kern, trial))
			}
		}
	}
}

func TestVASSpreadsBetterThanRandom(t *testing.T) {
	// The headline behaviour: VAS's objective beats a uniform subset's.
	pts := clusteredPoints(1000, 8)
	kern := testKernel()
	ic := NewInterchange(Options{K: 30, Kernel: kern})
	Converge(ic, pts, 3)
	vasObj := Objective(kern, ic.Sample())
	rng := rand.New(rand.NewSource(9))
	randObj := Objective(kern, RandomSubset(pts, 30, rng.Intn))
	if vasObj >= randObj {
		t.Errorf("VAS objective %v not better than random %v", vasObj, randObj)
	}
}

func TestSampleIDsParallelToSample(t *testing.T) {
	pts := clusteredPoints(200, 10)
	ic := NewInterchange(Options{K: 9, Kernel: testKernel()})
	for i, p := range pts {
		ic.Add(p, i)
	}
	s := ic.Sample()
	ids := ic.SampleIDs()
	if len(s) != len(ids) {
		t.Fatalf("lengths differ: %d vs %d", len(s), len(ids))
	}
	for i := range s {
		if !pts[ids[i]].Equal(s[i]) {
			t.Fatalf("sample[%d]=%v but pts[ids[%d]]=%v", i, s[i], i, pts[ids[i]])
		}
	}
}

func TestNormalizedObjective(t *testing.T) {
	kern := testKernel()
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.1, 0), geom.Pt(0, 0.1)}
	obj := Objective(kern, pts)
	norm := NormalizedObjective(kern, pts)
	if math.Abs(norm-obj/6) > 1e-15 {
		t.Errorf("normalized = %v, want obj/6 = %v", norm, obj/6)
	}
	if NormalizedObjective(kern, pts[:1]) != 0 {
		t.Error("single point should normalize to 0")
	}
}

// TestGridIndexVariant: ES+Loc, which once located the slots inside the
// kernel support through a grid or R-tree index and now skips the pairs
// beyond it, keeps an objective within 5% of ES's on clustered data.
func TestGridIndexVariant(t *testing.T) {
	pts := clusteredPoints(500, 11)
	kern := testKernel()
	es := NewInterchange(Options{K: 12, Kernel: kern, Variant: ES})
	loc := NewInterchange(Options{K: 12, Kernel: kern, Variant: ESLoc})
	for i, p := range pts {
		es.Add(p, i)
		loc.Add(p, i)
	}
	objES := Objective(kern, es.Sample())
	objLoc := Objective(kern, loc.Sample())
	if objLoc > objES*1.05+1e-9 {
		t.Errorf("ESLoc objective %v much worse than ES %v", objLoc, objES)
	}
}

// TestSlotHeap pins Shrink's choice of slot: the max-responsibility member
// of the expanded set is evicted, and a tie with the newcomer keeps the
// sample unchanged.
func TestSlotHeap(t *testing.T) {
	for _, v := range []Variant{NoES, ES, ESLoc} {
		ic := NewInterchange(Options{K: 2, Kernel: testKernel(), Variant: v})
		ic.Add(geom.Pt(0, 0), 0)
		ic.Add(geom.Pt(1, 0), 1)

		// A coincident newcomer ties with id 0: no swap.
		ic.Add(geom.Pt(0, 0), 2)
		if got := sortedIDs(ic); !equalInts(got, []int{0, 1}) || ic.Replacements() != 0 {
			t.Fatalf("%v: tie swapped: ids %v, replacements %d", v, got, ic.Replacements())
		}
		// Midway between the members, the newcomer has the largest
		// responsibility and is the one evicted.
		ic.Add(geom.Pt(0.5, 0), 3)
		if got := sortedIDs(ic); !equalInts(got, []int{0, 1}) || ic.Replacements() != 0 {
			t.Fatalf("%v: newcomer kept: ids %v, replacements %d", v, got, ic.Replacements())
		}
		// Just outside id 0, farther from id 1: id 0 now has the largest
		// responsibility and is evicted.
		ic.Add(geom.Pt(-0.1, 0), 4)
		if got := sortedIDs(ic); !equalInts(got, []int{1, 4}) || ic.Replacements() != 1 {
			t.Fatalf("%v: want id 0 evicted: ids %v, replacements %d", v, got, ic.Replacements())
		}
	}
}

func sortedIDs(ic *Interchange) []int {
	ids := ic.SampleIDs()
	sort.Ints(ids)
	return ids
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
