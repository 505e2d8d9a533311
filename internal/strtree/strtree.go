// Package strtree is the repo's one packed R-tree: one node layout, one
// Sort-Tile-Recursive packer (Leutenegger 1997), one structural validator
// and one best-first kNN search over a bounded (d², id) result heap.
//
// Both trees in the repo are built on it. The store's rtree index backend
// (internal/store) embeds a Layout over a table's (x, y) columns and adds
// zone maps, tombstones and predicates through a leaf visitor. Tree wraps
// a Layout over a point set for the density-embedding second pass (§V),
// the loss evaluator and the user simulation, which issue
// nearest/kNN/range queries against a sample or dataset. Layouts are
// immutable once packed and safe for concurrent reads.
package strtree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// fanout is the internal-node fanout of every packed tree.
const fanout = 16

// Node is one packed internal node. Its children are Nodes[Lo:Hi], or
// leaves [Lo, Hi) when LeafKids. LeafLo/LeafHi give the contiguous leaf
// span the subtree covers, so its entries are exactly
// Ord[LeafOff[LeafLo]:LeafOff[LeafHi]] — one run.
type Node struct {
	MBR            geom.Rect
	Lo, Hi         int32
	LeafLo, LeafHi int32
	LeafKids       bool
}

// Layout is a packed STR tree over entries addressed by int32 ids (row
// ids for the store, point indexes for Tree).
type Layout struct {
	// Ord holds the entry ids in leaf order: leaf l is
	// Ord[LeafOff[l]:LeafOff[l+1]].
	Ord     []int32
	LeafOff []int32
	// LeafMBR is the exact bounding rectangle of each leaf's entries.
	LeafMBR []geom.Rect
	// Nodes is the hierarchy, built bottom-up with the root LAST; a
	// node's children (lower nodes, or leaves) sit at strictly lower
	// indices, so iterative descent terminates.
	Nodes []Node
}

// Pack sorts ord — ids into xs/ys, all finite — into STR order and packs
// it: sort by x (ties y, then id), slice into ceil(sqrt(leaves)) vertical
// strips of whole leaves, sort each strip by y (ties x, then id), chunk
// into leaves of leafSize with exact MBRs, then group runs of fanout
// leaves, and of nodes, level by level up to one root. The id tie-break
// makes the layout a pure function of the input. ord is sorted in place
// and becomes the layout's Ord; an empty ord packs to an empty layout.
func Pack(xs, ys []float64, ord []int32, leafSize int) Layout {
	n := len(ord)
	if n == 0 {
		return Layout{Ord: ord}
	}
	slices.SortFunc(ord, func(a, b int32) int {
		return cmp.Or(cmp.Compare(xs[a], xs[b]), cmp.Compare(ys[a], ys[b]), cmp.Compare(a, b))
	})
	numLeaves := (n + leafSize - 1) / leafSize
	strips := max(int(math.Ceil(math.Sqrt(float64(numLeaves)))), 1)
	stripLen := ((numLeaves + strips - 1) / strips) * leafSize
	for lo := 0; lo < n; lo += stripLen {
		slices.SortFunc(ord[lo:min(lo+stripLen, n)], func(a, b int32) int {
			return cmp.Or(cmp.Compare(ys[a], ys[b]), cmp.Compare(xs[a], xs[b]), cmp.Compare(a, b))
		})
	}
	l := Layout{
		Ord:     ord,
		LeafOff: make([]int32, numLeaves+1),
		LeafMBR: make([]geom.Rect, numLeaves),
	}
	for leaf := 0; leaf < numLeaves; leaf++ {
		lo := leaf * leafSize
		l.LeafOff[leaf] = int32(lo)
		mbr := geom.EmptyRect()
		for _, id := range ord[lo:min(lo+leafSize, n)] {
			mbr = mbr.UnionPoint(geom.Pt(xs[id], ys[id]))
		}
		l.LeafMBR[leaf] = mbr
	}
	l.LeafOff[numLeaves] = int32(n)
	for c := 0; c < numLeaves; c += fanout {
		hi := min(c+fanout, numLeaves)
		mbr := geom.EmptyRect()
		for _, m := range l.LeafMBR[c:hi] {
			mbr = mbr.Union(m)
		}
		l.Nodes = append(l.Nodes, Node{MBR: mbr, Lo: int32(c), Hi: int32(hi),
			LeafLo: int32(c), LeafHi: int32(hi), LeafKids: true})
	}
	for levelLo := 0; len(l.Nodes)-levelLo > 1; {
		levelHi := len(l.Nodes)
		for c := levelLo; c < levelHi; c += fanout {
			hi := min(c+fanout, levelHi)
			mbr := geom.EmptyRect()
			for _, nd := range l.Nodes[c:hi] {
				mbr = mbr.Union(nd.MBR)
			}
			l.Nodes = append(l.Nodes, Node{MBR: mbr, Lo: int32(c), Hi: int32(hi),
				LeafLo: l.Nodes[c].LeafLo, LeafHi: l.Nodes[hi-1].LeafHi})
		}
		levelLo = levelHi
	}
	return l
}

// Validate checks the structure every descent and run slice indexes by,
// so a layout read from an untrusted source cannot panic or loop a
// search: leaf offsets start at 0, increase strictly (no empty leaf) and
// cover Ord; there is one MBR per leaf; every node's children sit in
// range and strictly below it, its leaf span agrees with its children's,
// which partition it contiguously; the root (last node) spans every leaf.
// Values — MBR extents and the ids in Ord — are not checked.
func (l *Layout) Validate() error {
	numLeaves := len(l.LeafOff) - 1
	if numLeaves < 1 {
		return fmt.Errorf("%d leaf offsets cannot delimit any leaf", len(l.LeafOff))
	}
	if len(l.LeafMBR) != numLeaves {
		return fmt.Errorf("%d leaf MBRs for %d leaves", len(l.LeafMBR), numLeaves)
	}
	if l.LeafOff[0] != 0 {
		return fmt.Errorf("leaf offsets start at %d, not 0", l.LeafOff[0])
	}
	for leaf := 1; leaf <= numLeaves; leaf++ {
		if l.LeafOff[leaf] <= l.LeafOff[leaf-1] {
			return fmt.Errorf("leaf offsets not increasing at leaf %d", leaf)
		}
	}
	if int(l.LeafOff[numLeaves]) != len(l.Ord) {
		return fmt.Errorf("leaf offsets cover %d entries, Ord has %d", l.LeafOff[numLeaves], len(l.Ord))
	}
	numNodes := len(l.Nodes)
	if numNodes < 1 {
		return errors.New("tree has no nodes")
	}
	for ni, nd := range l.Nodes {
		if nd.LeafKids {
			if nd.Lo < 0 || nd.Lo >= nd.Hi || int(nd.Hi) > numLeaves {
				return fmt.Errorf("node %d leaf children [%d,%d) out of range [0,%d)", ni, nd.Lo, nd.Hi, numLeaves)
			}
			if nd.LeafLo != nd.Lo || nd.LeafHi != nd.Hi {
				return fmt.Errorf("node %d leaf span [%d,%d) disagrees with children [%d,%d)",
					ni, nd.LeafLo, nd.LeafHi, nd.Lo, nd.Hi)
			}
			continue
		}
		if nd.Lo < 0 || nd.Lo >= nd.Hi || int(nd.Hi) > ni {
			return fmt.Errorf("node %d children [%d,%d) not strictly below it", ni, nd.Lo, nd.Hi)
		}
		if nd.LeafLo != l.Nodes[nd.Lo].LeafLo || nd.LeafHi != l.Nodes[nd.Hi-1].LeafHi {
			return fmt.Errorf("node %d leaf span [%d,%d) disagrees with its children's", ni, nd.LeafLo, nd.LeafHi)
		}
		for c := nd.Lo; c < nd.Hi-1; c++ {
			if l.Nodes[c].LeafHi != l.Nodes[c+1].LeafLo {
				return fmt.Errorf("node %d children do not partition its span contiguously at child %d", ni, c)
			}
		}
	}
	if root := l.Nodes[numNodes-1]; root.LeafLo != 0 || int(root.LeafHi) != numLeaves {
		return fmt.Errorf("root spans leaves [%d,%d), want [0,%d)", root.LeafLo, root.LeafHi, numLeaves)
	}
	return nil
}

// mindist2 returns the squared Euclidean distance from (x, y) to the
// nearest point of r — 0 inside, the axis shortfalls squared outside.
func mindist2(r geom.Rect, x, y float64) float64 {
	var dx, dy float64
	if x < r.MinX {
		dx = r.MinX - x
	} else if x > r.MaxX {
		dx = x - r.MaxX
	}
	if y < r.MinY {
		dy = r.MinY - y
	} else if y > r.MaxY {
		dy = y - r.MaxY
	}
	return dx*dx + dy*dy
}

// frontierEntry is one best-first frontier element: a node or a leaf,
// keyed by the squared mindist of its MBR.
type frontierEntry struct {
	d2   float64
	idx  int32
	leaf bool
}

// frontier is a min-heap on d2. Its operations return the updated slice
// rather than writing through a pointer, so a caller's stack buffer
// stays on the stack.
type frontier []frontierEntry

func (f frontier) push(e frontierEntry) frontier {
	f = append(f, e)
	for i := len(f) - 1; i > 0; {
		p := (i - 1) / 2
		if f[i].d2 >= f[p].d2 {
			break
		}
		f[i], f[p] = f[p], f[i]
		i = p
	}
	return f
}

func (f frontier) pop() (frontierEntry, frontier) {
	e := f[0]
	last := len(f) - 1
	f[0] = f[last]
	f = f[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && f[l].d2 < f[s].d2 {
			s = l
		}
		if r < last && f[r].d2 < f[s].d2 {
			s = r
		}
		if s == i {
			break
		}
		f[i], f[s] = f[s], f[i]
		i = s
	}
	return e, f
}

// Search is the one best-first kNN descent: nodes and leaves leave a
// min-heap frontier in order of the squared mindist from (x, y) to their
// MBR. A child whose mindist exceeds h's current k-th best is never
// queued (one that equals it is, so ties are never lost), and the descent
// ends once the nearest remaining entry is farther than that bound.
// visit(leaf) is called for each leaf reached; it pushes the leaf's
// candidates into h — applying whatever filters the caller owns — and
// returns false to stop the descent.
func (l *Layout) Search(x, y float64, h *KNN, visit func(leaf int32) bool) {
	if len(l.Nodes) == 0 {
		return
	}
	var buf [64]frontierEntry
	root := int32(len(l.Nodes) - 1)
	f := frontier(buf[:0]).push(frontierEntry{d2: mindist2(l.Nodes[root].MBR, x, y), idx: root})
	for len(f) > 0 {
		var e frontierEntry
		e, f = f.pop()
		if e.d2 > h.worst() {
			return // every remaining frontier entry is at least this far
		}
		if e.leaf {
			if !visit(e.idx) {
				return
			}
			continue
		}
		nd := &l.Nodes[e.idx]
		for c := nd.Lo; c < nd.Hi; c++ {
			var mbr geom.Rect
			if nd.LeafKids {
				mbr = l.LeafMBR[c]
			} else {
				mbr = l.Nodes[c].MBR
			}
			d2 := mindist2(mbr, x, y)
			if d2 > h.worst() {
				continue
			}
			f = f.push(frontierEntry{d2: d2, idx: c, leaf: nd.LeafKids})
		}
	}
}

// KNN is a bounded max-heap of the k best candidates seen so far, keyed
// worst-first by (squared distance desc, id desc): the root is the
// candidate to beat, so exact-distance ties go to the lowest id. NaN
// distances are rejected at push.
type KNN struct {
	k  int
	d2 []float64
	id []int
}

// NewKNN returns an empty heap keeping the k best candidates.
func NewKNN(k int) KNN { return KNN{k: k} }

// worst returns the current k-th best squared distance, or +Inf while
// the heap is not yet full (everything is welcome).
func (h *KNN) worst() float64 {
	if len(h.d2) < h.k {
		return math.Inf(1)
	}
	return h.d2[0]
}

// worse reports whether candidate a is strictly worse than b under the
// (distance, id) order.
func worse(d2a float64, ida int, d2b float64, idb int) bool {
	return d2a > d2b || (d2a == d2b && ida > idb)
}

// Push offers one candidate.
func (h *KNN) Push(d2 float64, id int) {
	if d2 != d2 { // NaN distance: the candidate never matches.
		return
	}
	if i := len(h.d2); i < h.k {
		if i == cap(h.d2) || i == cap(h.id) {
			h.grow()
		}
		// Reslice in place rather than append: a self-assignment keeps a
		// caller's stack buffers (Tree.Nearest's) from escaping.
		h.d2 = h.d2[:i+1]
		h.id = h.id[:i+1]
		h.d2[i], h.id[i] = d2, id
		// Sift up.
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h.d2[i], h.id[i], h.d2[p], h.id[p]) {
				break
			}
			h.d2[i], h.d2[p] = h.d2[p], h.d2[i]
			h.id[i], h.id[p] = h.id[p], h.id[i]
			i = p
		}
		return
	}
	if !worse(h.d2[0], h.id[0], d2, id) {
		return // not better than the current worst
	}
	h.d2[0], h.id[0] = d2, id
	h.siftDown(len(h.d2))
}

// grow doubles the heap's capacity, up to k.
func (h *KNN) grow() {
	c := min(max(2*len(h.d2), 8), h.k)
	d2 := make([]float64, len(h.d2), c)
	id := make([]int, len(h.id), c)
	copy(d2, h.d2)
	copy(id, h.id)
	h.d2, h.id = d2, id
}

// siftDown restores the heap order over the first n entries after the
// root was replaced.
func (h *KNN) siftDown(n int) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && worse(h.d2[l], h.id[l], h.d2[w], h.id[w]) {
			w = l
		}
		if r < n && worse(h.d2[r], h.id[r], h.d2[w], h.id[w]) {
			w = r
		}
		if w == i {
			return
		}
		h.d2[i], h.d2[w] = h.d2[w], h.d2[i]
		h.id[i], h.id[w] = h.id[w], h.id[i]
		i = w
	}
}

// Sorted heap-sorts the candidates in place and returns them ascending
// by (squared distance, id). It ends the heap's use.
func (h *KNN) Sorted() (d2 []float64, id []int) {
	for n := len(h.d2) - 1; n > 0; n-- {
		h.d2[0], h.d2[n] = h.d2[n], h.d2[0]
		h.id[0], h.id[n] = h.id[n], h.id[0]
		h.siftDown(n)
	}
	return h.d2, h.id
}

// sampleLeafSize is the leaf capacity of a Tree; 16 points per leaf
// keeps the leaf scan within two cache lines of each coordinate column.
const sampleLeafSize = 16

// Tree is an immutable packed STR tree over 2D points. Construct with
// Build. Safe for concurrent reads.
type Tree struct {
	xs, ys []float64
	ids    []int // payload per point; nil means the point's index
	lay    Layout
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
	if ids != nil && len(ids) != n {
		panic("strtree: ids length must match pts length")
	}
	t := &Tree{xs: make([]float64, n), ys: make([]float64, n)}
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	if ids != nil {
		// Store the points in payload order, so the search's tie rule —
		// lowest point index — is the lowest payload id.
		slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
		t.ids = make([]int, n)
	}
	for i, j := range ord {
		t.xs[i], t.ys[i] = pts[j].X, pts[j].Y
		if ids != nil {
			t.ids[i] = ids[j]
		}
		ord[i] = int32(i)
	}
	t.lay = Pack(t.xs, t.ys, ord, sampleLeafSize)
	return t
}

// Len returns the number of stored points.
func (t *Tree) Len() int { return len(t.xs) }

func (t *Tree) payload(i int) int {
	if t.ids == nil {
		return i
	}
	return t.ids[i]
}

// search runs the best-first descent for q, pushing every point of every
// leaf it reaches into h keyed by the point's index.
func (t *Tree) search(q geom.Point, h *KNN) {
	t.lay.Search(q.X, q.Y, h, func(leaf int32) bool {
		for _, i := range t.lay.Ord[t.lay.LeafOff[leaf]:t.lay.LeafOff[leaf+1]] {
			dx, dy := t.xs[i]-q.X, t.ys[i]-q.Y
			h.Push(dx*dx+dy*dy, int(i))
		}
		return true
	})
}

// Nearest returns the payload id and point of the stored point nearest
// to q, along with the distance; an exact tie goes to the lowest payload
// id. ok is false for an empty tree. It does not allocate.
func (t *Tree) Nearest(q geom.Point) (id int, p geom.Point, dist float64, ok bool) {
	var d2 [1]float64
	var idx [1]int
	h := KNN{k: 1, d2: d2[:0], id: idx[:0]}
	t.search(q, &h)
	if len(h.id) == 0 {
		return 0, geom.Point{}, 0, false
	}
	i := h.id[0]
	return t.payload(i), geom.Pt(t.xs[i], t.ys[i]), math.Sqrt(h.d2[0]), true
}

// KNearest returns up to k stored items nearest to q, ascending by
// distance with exact ties in payload id order.
func (t *Tree) KNearest(q geom.Point, k int) []Neighbor {
	if k <= 0 || t.Len() == 0 {
		return nil
	}
	h := NewKNN(k)
	t.search(q, &h)
	d2, idx := h.Sorted()
	out := make([]Neighbor, len(idx))
	for j, i := range idx {
		out[j] = Neighbor{ID: t.payload(i), P: geom.Pt(t.xs[i], t.ys[i]), Dist: math.Sqrt(d2[j])}
	}
	return out
}

// InRange appends to dst the items whose points fall inside r and
// returns the extended slice.
func (t *Tree) InRange(r geom.Rect, dst []Neighbor) []Neighbor {
	if len(t.lay.Nodes) == 0 {
		return dst
	}
	stack := []int32{int32(len(t.lay.Nodes) - 1)}
	for len(stack) > 0 {
		nd := &t.lay.Nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if !nd.MBR.Intersects(r) {
			continue
		}
		for c := nd.Lo; c < nd.Hi; c++ {
			if !nd.LeafKids {
				stack = append(stack, c)
				continue
			}
			if !t.lay.LeafMBR[c].Intersects(r) {
				continue
			}
			for _, i := range t.lay.Ord[t.lay.LeafOff[c]:t.lay.LeafOff[c+1]] {
				if p := geom.Pt(t.xs[i], t.ys[i]); r.Contains(p) {
					dst = append(dst, Neighbor{ID: t.payload(int(i)), P: p})
				}
			}
		}
	}
	return dst
}
