package vas

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/proximity"
)

// This file holds property-based checks (testing/quick plus randomized
// generators) of the core VAS invariants, complementing the example-based
// tests in vas_test.go.

// TestObjectivePermutationInvariant: Σ_{i<j} κ̃ must not depend on point
// order.
func TestObjectivePermutationInvariant(t *testing.T) {
	kern := testKernel()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%12) + 2
		pts := make([]geom.Point, m)
		for i := range pts {
			pts[i] = geom.Pt(rng.NormFloat64()*2, rng.NormFloat64()*2)
		}
		a := Objective(kern, pts)
		perm := rng.Perm(m)
		shuffled := make([]geom.Point, m)
		for i, j := range perm {
			shuffled[i] = pts[j]
		}
		b := Objective(kern, shuffled)
		return math.Abs(a-b) <= 1e-9*(1+a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNormalizedObjectiveBounds: κ̃ ∈ [0,1] for the Gaussian, so the
// normalized objective (the Theorem 3 scale) lies in [0, 1/2].
func TestNormalizedObjectiveBounds(t *testing.T) {
	kern := testKernel()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%20) + 2
		pts := make([]geom.Point, m)
		for i := range pts {
			pts[i] = geom.Pt(rng.NormFloat64(), rng.NormFloat64())
		}
		v, _, _ := GapToOptimal(kern, pts, nil)
		return v >= 0 && v <= 0.5+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInterchangeSampleIsSubset: whatever the stream, the sample consists
// of distinct stream elements with the right cardinality.
func TestInterchangeSampleIsSubset(t *testing.T) {
	kern := testKernel()
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw%20) + 1
		n := int(nRaw) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.NormFloat64()*3, rng.NormFloat64()*3)
		}
		ic := NewInterchange(Options{K: k, Kernel: kern})
		for i, p := range pts {
			ic.Add(p, i)
		}
		ids := ic.SampleIDs()
		sample := ic.Sample()
		want := k
		if n < k {
			want = n
		}
		if len(ids) != want || len(sample) != want {
			return false
		}
		seen := map[int]bool{}
		for i, id := range ids {
			if id < 0 || id >= n || seen[id] {
				return false
			}
			seen[id] = true
			if pts[id] != sample[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestInterchangeNotWorseThanPrefix: after the fill phase, every accepted
// swap strictly improves, so the final objective can never exceed the
// first-K prefix objective.
func TestInterchangeNotWorseThanPrefix(t *testing.T) {
	kern := testKernel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const k, n = 8, 120
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.NormFloat64(), rng.NormFloat64())
		}
		prefix := Objective(kern, pts[:k])
		ic := NewInterchange(Options{K: k, Kernel: kern})
		for i, p := range pts {
			ic.Add(p, i)
		}
		return ic.RecomputeObjective() <= prefix+1e-9
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDensityCountsConservationProperty: for any sample/data pair, the §V
// counts sum to the data size and are all non-negative.
func TestDensityCountsConservationProperty(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw%15) + 1
		n := int(nRaw%200) + 1
		rng := rand.New(rand.NewSource(seed))
		sample := make([]geom.Point, k)
		for i := range sample {
			sample[i] = geom.Pt(rng.NormFloat64(), rng.NormFloat64())
		}
		data := make([]geom.Point, n)
		for i := range data {
			data[i] = geom.Pt(rng.NormFloat64()*2, rng.NormFloat64()*2)
		}
		ws, err := DensityPass(sample, nil, data)
		if err != nil {
			return false
		}
		var sum int64
		for _, c := range ws.Counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == int64(n)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestExactNeverWorseThanInterchangeProperty: on random tiny instances the
// proven exact optimum lower-bounds the converged heuristic.
func TestExactNeverWorseThanInterchangeProperty(t *testing.T) {
	kern := proximity.NewGaussian(0.6)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(10)
		k := 2 + rng.Intn(4)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.NormFloat64(), rng.NormFloat64())
		}
		exact, err := SolveExact(testCtx(t), pts, ExactOptions{K: k, Kernel: kern})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ic := NewInterchange(Options{K: k, Kernel: kern})
		Converge(ic, pts, 32)
		if approx := Objective(kern, ic.Sample()); approx < exact.Objective-1e-9 {
			t.Fatalf("trial %d: heuristic %v beat proven optimum %v", trial, approx, exact.Objective)
		}
	}
}

// testCtx returns a background context; a helper so property tests read
// cleanly.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	return context.Background()
}
