// Package sampling implements the two baseline data-reduction methods the
// paper compares VAS against (§VI-B1):
//
//   - uniform random sampling via the single-pass reservoir method, and
//   - stratified sampling over a spatial grid with the "most balanced"
//     per-bin allocation the paper describes.
//
// Both consume points as a stream through the Sampler interface so that the
// same driver code feeds VAS and the baselines identically.
package sampling

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// Sampler consumes a stream of points and can produce the current sample.
// Implementations: Reservoir, Stratified, and vas.Interchange.
type Sampler interface {
	// Add offers one data point (with its dataset index) to the sampler.
	Add(p geom.Point, id int)
	// Sample returns the selected points. The returned slice is a copy.
	Sample() []geom.Point
	// SampleIDs returns the dataset indices of the selected points, in the
	// same order as Sample.
	SampleIDs() []int
}

// Run streams all of pts through s in index order and returns the sample.
func Run(s Sampler, pts []geom.Point) []geom.Point {
	for i, p := range pts {
		s.Add(p, i)
	}
	return s.Sample()
}

// Reservoir implements uniform random sampling with Vitter's Algorithm R:
// a single pass, O(1) work per element, and a uniformly random K-subset at
// every prefix of the stream.
type Reservoir struct {
	k    int
	rng  *rand.Rand
	seen int
	pts  []geom.Point
	ids  []int
}

// NewReservoir returns a reservoir sampler of size k seeded with seed. It
// panics when k is not positive.
func NewReservoir(k int, seed int64) *Reservoir {
	if k <= 0 {
		panic(fmt.Sprintf("sampling: reservoir size must be positive, got %d", k))
	}
	return &Reservoir{
		k:   k,
		rng: rand.New(rand.NewSource(seed)),
		pts: make([]geom.Point, 0, k),
		ids: make([]int, 0, k),
	}
}

// Add implements Sampler.
func (r *Reservoir) Add(p geom.Point, id int) {
	r.seen++
	if len(r.pts) < r.k {
		r.pts = append(r.pts, p)
		r.ids = append(r.ids, id)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.k {
		r.pts[j] = p
		r.ids[j] = id
	}
}

// Seen returns how many points have been offered.
func (r *Reservoir) Seen() int { return r.seen }

// Sample implements Sampler.
func (r *Reservoir) Sample() []geom.Point {
	out := make([]geom.Point, len(r.pts))
	copy(out, r.pts)
	return out
}

// SampleIDs implements Sampler.
func (r *Reservoir) SampleIDs() []int {
	out := make([]int, len(r.ids))
	copy(out, r.ids)
	return out
}

// Stratified implements grid-stratified sampling: the domain is divided
// into Cols×Rows non-overlapping bins and an independent reservoir runs in
// each bin. When sampling finishes, the per-bin reservoirs are combined
// using the most-balanced allocation (§VI-B1): every bin contributes
// ⌊K/bins⌋..⌈K/bins⌉ points when it can; bins with fewer points contribute
// everything they have and the shortfall is redistributed to the others.
//
// Stratified must know the data bounds up front (to define the bins); this
// matches the paper's offline setting where samples are built from a stored
// table whose extent is known.
type Stratified struct {
	k       int
	rng     *rand.Rand
	g       binGrid
	bins    []*binReservoir
	seen    int
	binning string
}

type binReservoir struct {
	pts  []geom.Point
	ids  []int
	seen int
}

// NewStratified returns a stratified sampler of total size k over bounds
// divided into cols×rows bins.
func NewStratified(k int, bounds geom.Rect, cols, rows int, seed int64) *Stratified {
	if k <= 0 {
		panic(fmt.Sprintf("sampling: stratified size must be positive, got %d", k))
	}
	return &Stratified{
		k:       k,
		rng:     rand.New(rand.NewSource(seed)),
		g:       newBinGrid(bounds, cols, rows),
		bins:    make([]*binReservoir, cols*rows),
		binning: fmt.Sprintf("%dx%d", cols, rows),
	}
}

// binGrid divides a bounding rectangle into cols × rows equal bins: the
// strata of the stratified sampler (the paper uses a 316×316 grid for
// Fig. 1 and 100 bins for the user study). Points outside the bounds
// are clamped into the border bins, which matches how stratified
// sampling treats boundary tuples.
type binGrid struct {
	minX, minY   float64
	cellW, cellH float64
	cols, rows   int
}

// newBinGrid panics when cols or rows is not positive or when bounds is
// empty, since a degenerate grid would silently put every point in one
// bin.
func newBinGrid(bounds geom.Rect, cols, rows int) binGrid {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("sampling: resolution must be positive, got %dx%d", cols, rows))
	}
	if bounds.IsEmpty() {
		panic("sampling: empty bounds")
	}
	g := binGrid{
		minX: bounds.MinX, minY: bounds.MinY,
		cellW: bounds.Width() / float64(cols), cellH: bounds.Height() / float64(rows),
		cols: cols, rows: rows,
	}
	// Degenerate axes (all points on a line) still need a positive step
	// so cellIndex stays well-defined.
	if g.cellW == 0 {
		g.cellW = 1
	}
	if g.cellH == 0 {
		g.cellH = 1
	}
	return g
}

// cellIndex returns the flat index row*cols + col of the bin containing
// p, clamped to the grid.
func (g binGrid) cellIndex(p geom.Point) int {
	c := min(max(int((p.X-g.minX)/g.cellW), 0), g.cols-1)
	r := min(max(int((p.Y-g.minY)/g.cellH), 0), g.rows-1)
	return r*g.cols + c
}

// NewStratifiedSquare returns a stratified sampler with bins^2 cells, the
// shape used for the paper's map plots (316×316) and user study (10×10 for
// "100 exclusive bins").
func NewStratifiedSquare(k int, bounds geom.Rect, bins int, seed int64) *Stratified {
	return NewStratified(k, bounds, bins, bins, seed)
}

// perBinCap is how many points each bin's reservoir retains. Keeping k
// per bin guarantees the final allocation can always be satisfied exactly
// as if every bin had run an unbounded reservoir, at bounded memory.
func (s *Stratified) perBinCap() int { return s.k }

// Add implements Sampler.
func (s *Stratified) Add(p geom.Point, id int) {
	s.seen++
	i := s.g.cellIndex(p)
	b := s.bins[i]
	if b == nil {
		b = &binReservoir{}
		s.bins[i] = b
	}
	b.seen++
	if len(b.pts) < s.perBinCap() {
		b.pts = append(b.pts, p)
		b.ids = append(b.ids, id)
		return
	}
	if j := s.rng.Intn(b.seen); j < s.perBinCap() {
		b.pts[j] = p
		b.ids[j] = id
	}
}

// allocation computes per-bin draw counts using the most-balanced rule.
// Bins are filled greedily one point at a time in rounds, which reproduces
// the paper's example: with 2 bins and K=100, a bin holding only 10 points
// contributes all 10 and the other contributes 90.
func (s *Stratified) allocation() []int {
	avail := make([]int, len(s.bins))
	nonEmpty := 0
	total := 0
	for i, b := range s.bins {
		if b != nil {
			avail[i] = len(b.pts)
			if avail[i] > 0 {
				nonEmpty++
			}
			total += avail[i]
		}
	}
	alloc := make([]int, len(s.bins))
	if nonEmpty == 0 {
		return alloc
	}
	want := s.k
	if want > total {
		want = total
	}
	// Round-robin allocation: repeatedly give one slot to every bin that
	// still has unused points, in index order, until the budget is spent.
	for want > 0 {
		progressed := false
		for i := range s.bins {
			if want == 0 {
				break
			}
			if alloc[i] < avail[i] {
				alloc[i]++
				want--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return alloc
}

// Sample implements Sampler.
func (s *Stratified) Sample() []geom.Point {
	pts, _ := s.sampleWithIDs()
	return pts
}

// SampleIDs implements Sampler.
func (s *Stratified) SampleIDs() []int {
	_, ids := s.sampleWithIDs()
	return ids
}

func (s *Stratified) sampleWithIDs() ([]geom.Point, []int) {
	alloc := s.allocation()
	var pts []geom.Point
	var ids []int
	for i, b := range s.bins {
		if b == nil || alloc[i] == 0 {
			continue
		}
		// The reservoir already holds a uniform subset; take the first
		// alloc[i] after a deterministic shuffle keyed on bin index so
		// repeated calls agree.
		order := make([]int, len(b.pts))
		for j := range order {
			order[j] = j
		}
		shuffleRNG := rand.New(rand.NewSource(int64(i)*2654435761 + 12345))
		shuffleRNG.Shuffle(len(order), func(a, c int) { order[a], order[c] = order[c], order[a] })
		for _, j := range order[:alloc[i]] {
			pts = append(pts, b.pts[j])
			ids = append(ids, b.ids[j])
		}
	}
	return pts, ids
}

// Seen returns how many points have been offered.
func (s *Stratified) Seen() int { return s.seen }

// Method identifies a sampling strategy by name; used by the CLI tools and
// experiment harness tables.
type Method string

// Method names as they appear in the paper's tables.
const (
	MethodUniform    Method = "uniform"
	MethodStratified Method = "stratified"
	MethodVAS        Method = "vas"
	MethodVASDensity Method = "vas+density"
)

// ParseMethod validates a method name.
func ParseMethod(s string) (Method, error) {
	switch Method(s) {
	case MethodUniform, MethodStratified, MethodVAS, MethodVASDensity:
		return Method(s), nil
	}
	return "", fmt.Errorf("sampling: unknown method %q", s)
}
