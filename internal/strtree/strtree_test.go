package strtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func normPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.NormFloat64()*10, rng.NormFloat64()*10)
	}
	return pts
}

func TestPackedNearestMatchesBruteForce(t *testing.T) {
	pts := normPoints(700, 1)
	tr := Build(pts, nil)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 200; q++ {
		probe := geom.Pt(rng.NormFloat64()*12, rng.NormFloat64()*12)
		id, p, d, ok := tr.Nearest(probe)
		if !ok {
			t.Fatal("Nearest not ok on non-empty tree")
		}
		// Brute force.
		bestD := probe.Dist(pts[0])
		for _, cand := range pts[1:] {
			if dd := probe.Dist(cand); dd < bestD {
				bestD = dd
			}
		}
		if d > bestD+1e-9 {
			t.Fatalf("Nearest dist %v, brute force %v", d, bestD)
		}
		if pts[id] != p {
			t.Fatal("returned point does not match returned id")
		}
	}
}

func TestMindist2(t *testing.T) {
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	if d := mindist2(r, 1, 1); d != 0 {
		t.Errorf("inside d² = %v", d)
	}
	if d := mindist2(r, 5, 1); d != 9 {
		t.Errorf("right d² = %v, want 9", d)
	}
	if d := mindist2(r, 5, 6); d != 25 {
		t.Errorf("corner d² = %v, want 25", d)
	}
	if d := mindist2(geom.EmptyRect(), 0, 0); !math.IsInf(d, 1) {
		t.Errorf("empty rect d² = %v, want +Inf", d)
	}
}

func TestPackedNearestEmpty(t *testing.T) {
	tr := Build(nil, nil)
	if _, _, _, ok := tr.Nearest(geom.Pt(0, 0)); ok {
		t.Error("empty tree Nearest should report !ok")
	}
	if tr.Len() != 0 {
		t.Error("empty tree Len != 0")
	}
}

func TestPackedNearestSinglePoint(t *testing.T) {
	tr := Build([]geom.Point{geom.Pt(3, 4)}, []int{99})
	id, p, d, ok := tr.Nearest(geom.Pt(0, 0))
	if !ok || id != 99 || p != geom.Pt(3, 4) || d != 5 {
		t.Errorf("got id=%d p=%v d=%v ok=%v", id, p, d, ok)
	}
}

func TestPackedKNearestOrderAndCompleteness(t *testing.T) {
	pts := normPoints(400, 3)
	tr := Build(pts, nil)
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 60; q++ {
		probe := geom.Pt(rng.NormFloat64()*12, rng.NormFloat64()*12)
		k := 1 + rng.Intn(12)
		got := tr.KNearest(probe, k)
		if len(got) != k {
			t.Fatalf("KNearest returned %d, want %d", len(got), k)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist-1e-12 {
				t.Fatal("KNearest out of order")
			}
		}
		dists := make([]float64, len(pts))
		for i, p := range pts {
			dists[i] = probe.Dist(p)
		}
		sort.Float64s(dists)
		for i := 0; i < k; i++ {
			if got[i].Dist > dists[i]+1e-9 {
				t.Fatalf("rank %d dist %v, brute force %v", i, got[i].Dist, dists[i])
			}
		}
	}
}

func TestPackedKNearestMoreThanSize(t *testing.T) {
	pts := normPoints(5, 5)
	tr := Build(pts, nil)
	got := tr.KNearest(geom.Pt(0, 0), 50)
	if len(got) != 5 {
		t.Errorf("got %d results, want all 5", len(got))
	}
	if tr.KNearest(geom.Pt(0, 0), 0) != nil {
		t.Error("k=0 should return nil")
	}
}

func TestPackedInRangeMatchesBruteForce(t *testing.T) {
	pts := normPoints(500, 6)
	tr := Build(pts, nil)
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 60; q++ {
		r := geom.NewRect(
			geom.Pt(rng.NormFloat64()*10, rng.NormFloat64()*10),
			geom.Pt(rng.NormFloat64()*10, rng.NormFloat64()*10),
		)
		got := tr.InRange(r, nil)
		var want int
		for _, p := range pts {
			if r.Contains(p) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("InRange(%v) = %d, want %d", r, len(got), want)
		}
		for _, nb := range got {
			if !r.Contains(nb.P) {
				t.Fatalf("InRange returned outside point %v", nb.P)
			}
		}
	}
}

func TestPackedCustomIDs(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	tr := Build(pts, []int{42, 77})
	id, _, _, _ := tr.Nearest(geom.Pt(9, 0))
	if id != 77 {
		t.Errorf("id = %d, want 77", id)
	}
}

func TestPackedBuildPanicsOnIDMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on ids/pts length mismatch")
		}
	}()
	Build(normPoints(3, 8), []int{1, 2})
}

func TestPackedDuplicateCoordinates(t *testing.T) {
	// Many identical points must not break construction or search.
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = geom.Pt(1, 1)
	}
	pts = append(pts, geom.Pt(2, 2))
	tr := Build(pts, nil)
	id, _, d, ok := tr.Nearest(geom.Pt(2.1, 2.1))
	if !ok || id != 64 || d > 0.2 {
		t.Errorf("nearest among duplicates: id=%d d=%v", id, d)
	}
	got := tr.InRange(geom.RectAround(geom.Pt(1, 1), 0.1), nil)
	if len(got) != 64 {
		t.Errorf("InRange found %d duplicates, want 64", len(got))
	}
	// Exact-distance ties go to the lowest payload id, the store's order.
	// The probe below the duplicates ties all 64 of them.
	if id, _, _, _ := tr.Nearest(geom.Pt(1, 0)); id != 0 {
		t.Errorf("tied Nearest returned id %d, want 0", id)
	}
	all := tr.KNearest(geom.Pt(1, 0), len(pts))
	for i, nb := range all {
		if nb.ID != i {
			t.Fatalf("tied KNearest rank %d has id %d, want %d", i, nb.ID, i)
		}
	}
	// A tie straddling two distinct points keeps id order too.
	tr = Build([]geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0), geom.Pt(0, 1)}, nil)
	if nbs := tr.KNearest(geom.Pt(0, 0), 2); nbs[0].ID != 0 || nbs[1].ID != 1 {
		t.Errorf("tied KNearest ids %d, %d, want 0, 1", nbs[0].ID, nbs[1].ID)
	}
	if id, _, _, _ := tr.Nearest(geom.Pt(0, 0)); id != 0 {
		t.Errorf("tied Nearest returned id %d, want 0", id)
	}
	// Payload ids, not input positions, decide ties.
	tr = Build([]geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0), geom.Pt(0, 1), geom.Pt(0, -1)}, []int{30, 7, 20, 9})
	if id, p, _, _ := tr.Nearest(geom.Pt(0, 0)); id != 7 || p != geom.Pt(-1, 0) {
		t.Errorf("tied Nearest returned id %d at %v, want 7 at (-1, 0)", id, p)
	}
	for i, nb := range tr.KNearest(geom.Pt(0, 0), 4) {
		if want := []int{7, 9, 20, 30}[i]; nb.ID != want {
			t.Errorf("tied KNearest rank %d has id %d, want %d", i, nb.ID, want)
		}
	}
}

// TestPackedNearestAllocs: the density pass calls Nearest once per data
// point, so it must stay off the heap.
func TestPackedNearestAllocs(t *testing.T) {
	pts := normPoints(5000, 10)
	tr := Build(pts, nil)
	rng := rand.New(rand.NewSource(11))
	probes := normPoints(64, 12)
	allocs := testing.AllocsPerRun(200, func() {
		tr.Nearest(probes[rng.Intn(len(probes))])
	})
	if allocs > 2 {
		t.Errorf("Nearest makes %.1f allocations per call, want <= 2", allocs)
	}
}

func TestPackedTreeIsImmutableCopy(t *testing.T) {
	pts := normPoints(10, 9)
	tr := Build(pts, nil)
	// Mutating the caller's slice must not affect the tree.
	orig := pts[0]
	pts[0] = geom.Pt(9999, 9999)
	id, p, _, _ := tr.Nearest(orig)
	if p != orig && id == 0 {
		t.Error("tree shares storage with caller slice")
	}
}

// TestPackedScalesAcrossLeafBoundaries drives sizes around the leaf and
// fanout boundaries so single-leaf, single-node, and multi-level trees
// all get the brute-force treatment, and Validate must accept what Pack
// builds there, at the sample trees' leaf size and the store's (64).
func TestPackedScalesAcrossLeafBoundaries(t *testing.T) {
	sizes := []int{1, 2, sampleLeafSize - 1, sampleLeafSize, sampleLeafSize + 1,
		sampleLeafSize*fanout - 1, sampleLeafSize * fanout, sampleLeafSize*fanout + 1,
		sampleLeafSize*fanout*fanout + 1, 5000}
	for _, n := range sizes {
		pts := normPoints(n, int64(n))
		tr := Build(pts, nil)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if err := tr.lay.Validate(); err != nil {
			t.Fatalf("n=%d: Validate rejects the tree's layout: %v", n, err)
		}
		for _, leafSize := range []int{sampleLeafSize, 64} {
			ord := make([]int32, n)
			for i := range ord {
				ord[i] = int32(i)
			}
			l := Pack(tr.xs, tr.ys, ord, leafSize)
			if err := l.Validate(); err != nil {
				t.Fatalf("n=%d leafSize=%d: Validate rejects Pack's output: %v", n, leafSize, err)
			}
		}
		probe := geom.Pt(1, -2)
		_, _, d, ok := tr.Nearest(probe)
		if !ok {
			t.Fatalf("n=%d: Nearest !ok", n)
		}
		bestD := probe.Dist(pts[0])
		for _, p := range pts[1:] {
			if dd := probe.Dist(p); dd < bestD {
				bestD = dd
			}
		}
		if d > bestD+1e-9 {
			t.Fatalf("n=%d: Nearest %v, brute %v", n, d, bestD)
		}
		all := tr.InRange(geom.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}, nil)
		if len(all) != n {
			t.Fatalf("n=%d: full-extent InRange found %d", n, len(all))
		}
	}
}
