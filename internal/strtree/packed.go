// Package strtree is the repo's one home for standalone point trees
// (the store's serving-path spatial indexes live in internal/store and
// share the STR bulk-load algorithm used here).
//
// It has one shape: Tree, an immutable packed R-tree over 2D points,
// bulk-loaded with Sort-Tile-Recursive (Leutenegger 1997). Built once, read
// forever — the density-embedding second pass (§V), the loss evaluator,
// and the user simulation build it over a sample or dataset and issue
// nearest/kNN/range queries. Safe for concurrent reads.
package strtree

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/geom"
)

const (
	// packedLeafSize is the leaf capacity of the packed tree; 16 points
	// per leaf keeps the leaf scan within two cache lines of coordinates.
	packedLeafSize = 16
	// packedFanout is the internal-node fanout of the packed tree.
	packedFanout = 16
)

// Tree is an immutable packed STR-bulk-loaded R-tree over 2D points.
// Construct with Build.
type Tree struct {
	pts []geom.Point
	ids []int
	// ord permutes [0,len(pts)) into leaf order: leaf i holds
	// ord[leafOff[i]:leafOff[i+1]].
	ord     []int32
	leafOff []int32
	leafMBR []geom.Rect
	// nodes is the packed hierarchy, built bottom-up with the root LAST;
	// a node's children (other nodes, or leaves at the lowest level) sit
	// at strictly lower indices, so iterative descent terminates.
	nodes []pnode
}

// pnode is one packed internal node. When leafKids is true, [lo,hi)
// indexes into leafMBR/leafOff; otherwise into nodes.
type pnode struct {
	mbr      geom.Rect
	lo, hi   int32
	leafKids bool
}

// Neighbor is one kNN or range result.
type Neighbor struct {
	ID   int
	P    geom.Point
	Dist float64
}

// Build constructs a packed STR tree over pts. The returned tree keeps
// its own copy of the points. ids[i] is the payload returned for pts[i];
// pass nil to use the index itself.
func Build(pts []geom.Point, ids []int) *Tree {
	n := len(pts)
	t := &Tree{
		pts: make([]geom.Point, n),
		ids: make([]int, n),
	}
	copy(t.pts, pts)
	if ids != nil {
		if len(ids) != n {
			panic("strtree: ids length must match pts length")
		}
		copy(t.ids, ids)
	} else {
		for i := range t.ids {
			t.ids[i] = i
		}
	}
	if n == 0 {
		return t
	}
	t.ord = strOrder(t.pts, packedLeafSize)
	t.packLeaves()
	t.packNodes()
	return t
}

// strOrder returns the Sort-Tile-Recursive permutation: sort by x (ties
// y), slice into ceil(sqrt(P)) vertical strips of whole leaves, sort
// each strip by y (ties x). Chunking the result into runs of leafSize
// yields spatially tight leaves for any distribution.
func strOrder(pts []geom.Point, leafSize int) []int32 {
	n := len(pts)
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.Slice(ord, func(a, b int) bool {
		pa, pb := pts[ord[a]], pts[ord[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})
	numLeaves := (n + leafSize - 1) / leafSize
	strips := int(math.Ceil(math.Sqrt(float64(numLeaves))))
	if strips < 1 {
		strips = 1
	}
	// Each strip takes a whole number of leaves' worth of points.
	leavesPerStrip := (numLeaves + strips - 1) / strips
	stripPts := leavesPerStrip * leafSize
	for lo := 0; lo < n; lo += stripPts {
		hi := lo + stripPts
		if hi > n {
			hi = n
		}
		strip := ord[lo:hi]
		sort.Slice(strip, func(a, b int) bool {
			pa, pb := pts[strip[a]], pts[strip[b]]
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return pa.X < pb.X
		})
	}
	return ord
}

// packLeaves chunks the STR order into leaves and computes their MBRs.
func (t *Tree) packLeaves() {
	n := len(t.ord)
	numLeaves := (n + packedLeafSize - 1) / packedLeafSize
	t.leafOff = make([]int32, numLeaves+1)
	t.leafMBR = make([]geom.Rect, numLeaves)
	for l := 0; l < numLeaves; l++ {
		lo := l * packedLeafSize
		hi := lo + packedLeafSize
		if hi > n {
			hi = n
		}
		t.leafOff[l] = int32(lo)
		mbr := geom.EmptyRect()
		for _, id := range t.ord[lo:hi] {
			mbr = mbr.UnionPoint(t.pts[id])
		}
		t.leafMBR[l] = mbr
	}
	t.leafOff[numLeaves] = int32(n)
}

// packNodes builds the internal hierarchy bottom-up: level 0 groups
// runs of packedFanout leaves, each later level groups runs of the
// previous level's nodes, until one root remains (stored last).
func (t *Tree) packNodes() {
	numLeaves := len(t.leafMBR)
	// Level 0 over leaves.
	levelLo := 0
	for l := 0; l < numLeaves; l += packedFanout {
		hi := l + packedFanout
		if hi > numLeaves {
			hi = numLeaves
		}
		mbr := geom.EmptyRect()
		for _, m := range t.leafMBR[l:hi] {
			mbr = mbr.Union(m)
		}
		t.nodes = append(t.nodes, pnode{mbr: mbr, lo: int32(l), hi: int32(hi), leafKids: true})
	}
	// Later levels over the previous level's node range.
	for len(t.nodes)-levelLo > 1 {
		levelHi := len(t.nodes)
		for l := levelLo; l < levelHi; l += packedFanout {
			hi := l + packedFanout
			if hi > levelHi {
				hi = levelHi
			}
			mbr := geom.EmptyRect()
			for _, c := range t.nodes[l:hi] {
				mbr = mbr.Union(c.mbr)
			}
			t.nodes = append(t.nodes, pnode{mbr: mbr, lo: int32(l), hi: int32(hi)})
		}
		levelLo = levelHi
	}
}

// Len returns the number of stored points.
func (t *Tree) Len() int { return len(t.pts) }

// Nearest returns the payload id and point of the stored point nearest
// to q, along with the distance. ok is false for an empty tree.
func (t *Tree) Nearest(q geom.Point) (id int, p geom.Point, dist float64, ok bool) {
	nbs := t.KNearest(q, 1)
	if len(nbs) == 0 {
		return 0, geom.Point{}, 0, false
	}
	return nbs[0].ID, nbs[0].P, nbs[0].Dist, true
}

// knnEntry is a best-first queue element: an internal node, a leaf, or
// a single point, ordered by (squared) distance lower bound.
type knnEntry struct {
	dist float64
	idx  int32
	kind int8 // 0 node, 1 leaf, 2 point
}

type knnQueue []knnEntry

func (q knnQueue) Len() int           { return len(q) }
func (q knnQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q knnQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *knnQueue) Push(x any)        { *q = append(*q, x.(knnEntry)) }
func (q *knnQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// KNearest returns up to k stored items nearest to q in increasing
// distance order, by best-first search over the packed hierarchy.
func (t *Tree) KNearest(q geom.Point, k int) []Neighbor {
	if k <= 0 || len(t.pts) == 0 {
		return nil
	}
	pq := &knnQueue{}
	root := int32(len(t.nodes) - 1)
	if root < 0 {
		// Single leaf, no internal nodes.
		heap.Push(pq, knnEntry{dist: t.leafMBR[0].DistToPoint(q), idx: 0, kind: 1})
	} else {
		heap.Push(pq, knnEntry{dist: t.nodes[root].mbr.DistToPoint(q), idx: root, kind: 0})
	}
	out := make([]Neighbor, 0, k)
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(pq).(knnEntry)
		switch e.kind {
		case 2:
			id := t.ord[e.idx]
			out = append(out, Neighbor{ID: t.ids[id], P: t.pts[id], Dist: e.dist})
		case 1:
			lo, hi := t.leafOff[e.idx], t.leafOff[e.idx+1]
			for i := lo; i < hi; i++ {
				heap.Push(pq, knnEntry{dist: t.pts[t.ord[i]].Dist(q), idx: i, kind: 2})
			}
		default:
			n := t.nodes[e.idx]
			kind := int8(0)
			if n.leafKids {
				kind = 1
			}
			for c := n.lo; c < n.hi; c++ {
				var d float64
				if n.leafKids {
					d = t.leafMBR[c].DistToPoint(q)
				} else {
					d = t.nodes[c].mbr.DistToPoint(q)
				}
				heap.Push(pq, knnEntry{dist: d, idx: c, kind: kind})
			}
		}
	}
	return out
}

// InRange appends to dst the items whose points fall inside r and
// returns the extended slice.
func (t *Tree) InRange(r geom.Rect, dst []Neighbor) []Neighbor {
	if len(t.pts) == 0 {
		return dst
	}
	var stack []int32
	appendLeaf := func(l int32) {
		if !t.leafMBR[l].Intersects(r) {
			return
		}
		for i := t.leafOff[l]; i < t.leafOff[l+1]; i++ {
			id := t.ord[i]
			if p := t.pts[id]; r.Contains(p) {
				dst = append(dst, Neighbor{ID: t.ids[id], P: p})
			}
		}
	}
	if len(t.nodes) == 0 {
		appendLeaf(0)
		return dst
	}
	stack = append(stack, int32(len(t.nodes)-1))
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.nodes[ni]
		if !n.mbr.Intersects(r) {
			continue
		}
		for c := n.lo; c < n.hi; c++ {
			if n.leafKids {
				appendLeaf(c)
			} else {
				stack = append(stack, c)
			}
		}
	}
	return dst
}
