// Package usersim simulates the paper's Mechanical Turk user study
// (§VI-B, Table I, Fig. 7). The real study cannot be rerun offline, so
// this package substitutes programmatic users that operate on exactly
// the information a human has: the rendered sample inside a zoom
// viewport. Each task mirrors its questionnaire:
//
//   - Regression: estimate the altitude at a probe location from nearby
//     visible points, then answer a multiple-choice question (correct
//     answer, two distractors, "not sure").
//   - Density estimation: given four markers, pick the densest and the
//     sparsest by the plotted mass around each marker.
//   - Clustering: count the cluster blobs visible in the rendered sample.
//
// The mechanism under test is the paper's: user success depends only on
// what the sample reveals near the question's location. Worker
// imperfection is modeled with answer noise, and every task averages many
// randomized trials.
package usersim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/strtree"
)

// Config holds the study-wide knobs. Zero fields take defaults from
// DefaultConfig.
type Config struct {
	// Trials is the number of randomized questions per task evaluation
	// (the paper uses 6 locations × 40 workers; default 240).
	Trials int
	// ZoomFactor is how far questions zoom into the data (default 8; the
	// paper asks questions on "zoomed-in views").
	ZoomFactor float64
	// PerceptionFrac is the radius, as a fraction of the viewport
	// diagonal, within which a user can read off point values around the
	// probe mark. Humans use whatever dots are visible near the X, so
	// the default is generous (0.35); estimation error from far-away
	// dots is what degrades accuracy, not an arbitrary cutoff.
	PerceptionFrac float64
	// NoiseProb is the probability a worker answers randomly regardless
	// of the evidence — the residual error rate visible in the paper's
	// Table I even at 100K samples (default 0.08).
	NoiseProb float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns the defaults documented on Config.
func DefaultConfig(seed int64) Config {
	return Config{
		Trials:         240,
		ZoomFactor:     8,
		PerceptionFrac: 0.35,
		NoiseProb:      0.08,
		Seed:           seed,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig(c.Seed)
	if c.Trials <= 0 {
		c.Trials = d.Trials
	}
	if c.ZoomFactor < 1 {
		c.ZoomFactor = d.ZoomFactor
	}
	if c.PerceptionFrac <= 0 {
		c.PerceptionFrac = d.PerceptionFrac
	}
	if c.NoiseProb < 0 {
		c.NoiseProb = d.NoiseProb
	}
}

// Result is one task evaluation.
type Result struct {
	// Success is the fraction of trials answered correctly.
	Success float64
	// Trials is the number of questions asked.
	Trials int
	// Abstained is the fraction of trials where the user had no evidence
	// (no visible point near the probe) and answered "not sure".
	Abstained float64
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("success=%.3f trials=%d abstain=%.3f", r.Success, r.Trials, r.Abstained)
}

// Regression runs the Table I(a) task. data and values are the full
// dataset with the value column (altitude); sample and sampleValues are
// the visualized subset with its per-point values.
//
// Each trial zooms into a random data region, probes a random location
// inside it, and asks a four-way multiple choice. The user estimates the
// value from the visible sample points within the perception radius; with
// no visible evidence the user abstains (scored as incorrect, matching the
// paper's "I'm not sure" option being a wrong answer for scoring
// purposes).
func Regression(data []geom.Point, values []float64, sample []geom.Point, sampleValues []float64, cfg Config) (Result, error) {
	if len(data) == 0 || len(data) != len(values) {
		return Result{}, fmt.Errorf("usersim: dataset needs parallel points/values, got %d/%d", len(data), len(values))
	}
	if len(sample) == 0 || len(sample) != len(sampleValues) {
		return Result{}, fmt.Errorf("usersim: sample needs parallel points/values, got %d/%d", len(sample), len(sampleValues))
	}
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	dataTree := strtree.Build(data, nil)
	sampleTree := strtree.Build(sample, nil)
	bounds := geom.Bounds(data)

	success, abstain := 0, 0
	attempts := 0
	maxAttempts := cfg.Trials * 16
	for t := 0; t < cfg.Trials && attempts < maxAttempts; attempts++ {
		// Zoom regions are chosen uniformly over the plot area (the paper
		// zooms into "six randomly-chosen regions" of the overview), not
		// weighted by data mass — this is precisely what defeats uniform
		// sampling, whose points all sit in the densest areas.
		center := randomInRect(rng, bounds)
		vp := zoomInto(bounds, center, cfg.ZoomFactor)
		// Regions with almost no data cannot host a question: redraw.
		inView := dataTree.InRange(vp, nil)
		if len(inView) < 5 {
			continue
		}
		// The probed location 'X' is spread over the view area, not over
		// the data mass: pick a random spot in the view and probe the
		// nearest data point, requiring it to be visually at that spot.
		diag := math.Hypot(vp.Width(), vp.Height())
		probe, ok := areaWeightedProbe(rng, dataTree, vp, 0.1*diag)
		if !ok {
			continue
		}
		// Ground truth: mean value of the 5 nearest dataset points.
		truth := meanValue(dataTree.KNearest(probe, 5), values)
		// Distractor spacing: plausible within this view — a fraction of
		// the local value range, as the paper's hand-picked false answers
		// were plausible for the displayed region.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, nb := range inView {
			v := values[nb.ID]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		localRange := hi - lo
		if localRange <= 0 {
			continue // flat region: no meaningful question
		}
		delta := localRange * 0.35
		t++

		if rng.Float64() < cfg.NoiseProb {
			if rng.Intn(4) == 0 { // one of {correct, false, false, not sure}
				success++
			}
			continue
		}

		// The user's evidence: visible sample points within perception
		// radius of the probe.
		radius := cfg.PerceptionFrac * diag
		visible := visibleWithin(sampleTree, sample, vp, probe, radius, 5)
		if len(visible) == 0 {
			abstain++
			continue
		}
		est := weightedEstimate(probe, visible, sampleValues)

		// Four-way multiple choice: correct, truth±delta. The user picks
		// the choice nearest their estimate.
		choices := []float64{truth, truth + delta*(1+rng.Float64()), truth - delta*(1+rng.Float64())}
		best, bestDist := -1, math.Inf(1)
		for i, c := range choices {
			if d := math.Abs(est - c); d < bestDist {
				best, bestDist = i, d
			}
		}
		if best == 0 {
			success++
		}
	}
	return Result{
		Success:   float64(success) / float64(cfg.Trials),
		Trials:    cfg.Trials,
		Abstained: float64(abstain) / float64(cfg.Trials),
	}, nil
}

// areaWeightedProbe picks a question location spread uniformly over the
// view: a random spot whose nearest data point is close enough to "be"
// that spot on screen. Returns !ok when several tries find no data-backed
// spot (the caller redraws the region).
func areaWeightedProbe(rng *rand.Rand, dataTree *strtree.Tree, vp geom.Rect, maxDist float64) (geom.Point, bool) {
	for try := 0; try < 12; try++ {
		spot := randomInRect(rng, vp)
		_, p, d, ok := dataTree.Nearest(spot)
		if ok && d <= maxDist && vp.Contains(p) {
			return p, true
		}
	}
	return geom.Point{}, false
}

// randomInRect draws a point uniformly over r.
func randomInRect(rng *rand.Rand, r geom.Rect) geom.Point {
	return geom.Pt(r.MinX+rng.Float64()*r.Width(), r.MinY+rng.Float64()*r.Height())
}

// zoomInto returns a viewport of size core/factor centred on c.
func zoomInto(core geom.Rect, c geom.Point, factor float64) geom.Rect {
	w := core.Width() / factor
	h := core.Height() / factor
	return geom.Rect{
		MinX: c.X - w/2, MaxX: c.X + w/2,
		MinY: c.Y - h/2, MaxY: c.Y + h/2,
	}
}

// visibleWithin returns the indices of up to k sample points that are both
// inside the viewport and within radius of the probe.
func visibleWithin(tree *strtree.Tree, sample []geom.Point, vp geom.Rect, probe geom.Point, radius float64, k int) []strtree.Neighbor {
	nbs := tree.KNearest(probe, k*4)
	var out []strtree.Neighbor
	for _, nb := range nbs {
		if nb.Dist <= radius && vp.Contains(sample[nb.ID]) {
			out = append(out, nb)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

func meanValue(nbs []strtree.Neighbor, values []float64) float64 {
	if len(nbs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, nb := range nbs {
		s += values[nb.ID]
	}
	return s / float64(len(nbs))
}

// weightedEstimate is inverse-distance-weighted interpolation from the
// visible points — the visual read-off a human makes from nearby dots.
func weightedEstimate(probe geom.Point, nbs []strtree.Neighbor, values []float64) float64 {
	var num, den float64
	for _, nb := range nbs {
		w := 1 / (nb.Dist + 1e-12)
		num += values[nb.ID] * w
		den += w
	}
	return num / den
}

// Density runs the Table I(b) task: four markers inside a zoomed view; the
// user must identify both the densest and the sparsest marker from the
// plotted mass. weights carries the §V density counts (nil for unweighted
// samples). Score per trial is 0.5 per correct pick, matching the paper's
// two-part question.
func Density(data []geom.Point, sample []geom.Point, weights []int64, cfg Config) (Result, error) {
	if len(data) == 0 {
		return Result{}, fmt.Errorf("usersim: empty dataset")
	}
	if len(sample) == 0 {
		return Result{}, fmt.Errorf("usersim: empty sample")
	}
	if weights != nil && len(weights) != len(sample) {
		return Result{}, fmt.Errorf("usersim: %d weights for %d sample points", len(weights), len(sample))
	}
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	dataTree := strtree.Build(data, nil)
	sampleTree := strtree.Build(sample, nil)
	bounds := geom.Bounds(data)

	var score float64
	abstain := 0
	attempts := 0
	maxAttempts := cfg.Trials * 16
	for t := 0; t < cfg.Trials && attempts < maxAttempts; attempts++ {
		// Density questions live in dense zoomed-in areas (the paper's
		// Fig. 6 shows a data-rich view): the view centres on a random
		// data point and zooms well past the regression task's depth, so
		// every quadrant holds data and the question is about *density
		// contrast*, not presence. This is exactly the regime where a
		// plain VAS sample misleads (it flattens density, §V).
		center := data[rng.Intn(len(data))]
		vp := zoomInto(bounds, center, cfg.ZoomFactor*2)
		if len(dataTree.InRange(vp, nil)) < 20 {
			continue // not a dense area; redraw
		}
		quads := quadrants(vp)

		// Ground truth: dataset mass per quadrant. The four marked
		// locations divide the zoomed view into quadrants, mirroring the
		// paper's markers spread across the image.
		truthMass := make([]float64, len(quads))
		occupied := 0
		for i, q := range quads {
			truthMass[i] = float64(len(dataTree.InRange(q, nil)))
			if truthMass[i] > 0 {
				occupied++
			}
		}
		trueDense := argmax(truthMass)
		trueSparse := argmin(truthMass)
		if occupied < 4 || truthMass[trueDense] == truthMass[trueSparse] {
			continue // the question needs contrast between occupied areas
		}
		t++

		if rng.Float64() < cfg.NoiseProb {
			if rng.Intn(4) == trueDense {
				score += 0.5
			}
			if rng.Intn(4) == trueSparse {
				score += 0.5
			}
			continue
		}

		// The user's evidence: plotted mass per quadrant, weighted by the
		// density encoding when present.
		seen := make([]float64, len(quads))
		anyMass := false
		for i, q := range quads {
			seen[i] = sampleMassIn(sampleTree, q, weights)
			if seen[i] > 0 {
				anyMass = true
			}
		}
		if !anyMass {
			abstain++
			continue
		}
		// Pick, breaking ties randomly — a user facing identical-looking
		// regions guesses.
		if pickExtreme(rng, seen, true) == trueDense {
			score += 0.5
		}
		if pickExtreme(rng, seen, false) == trueSparse {
			score += 0.5
		}
	}
	return Result{
		Success:   score / float64(cfg.Trials),
		Trials:    cfg.Trials,
		Abstained: float64(abstain) / float64(cfg.Trials),
	}, nil
}

// quadrants splits a viewport into its four quadrant rectangles.
func quadrants(vp geom.Rect) []geom.Rect {
	c := vp.Center()
	return []geom.Rect{
		{MinX: vp.MinX, MinY: vp.MinY, MaxX: c.X, MaxY: c.Y},
		{MinX: c.X, MinY: vp.MinY, MaxX: vp.MaxX, MaxY: c.Y},
		{MinX: vp.MinX, MinY: c.Y, MaxX: c.X, MaxY: vp.MaxY},
		{MinX: c.X, MinY: c.Y, MaxX: vp.MaxX, MaxY: vp.MaxY},
	}
}

// sampleMassIn reads the perceived density of rect q from the plot. For an
// unweighted sample the perception is the dot count; for a §V
// density-embedded sample it is the total ink — the sum of dot areas,
// which the encoding makes proportional to the represented data mass.
func sampleMassIn(tree *strtree.Tree, q geom.Rect, weights []int64) float64 {
	var count float64
	var sumW int64
	for _, nb := range tree.InRange(q, nil) {
		count++
		if weights != nil {
			sumW += weights[nb.ID]
		}
	}
	if weights != nil {
		return float64(sumW)
	}
	return count
}

// pickExtreme returns the argmax (or argmin) index, breaking exact ties
// uniformly at random.
func pickExtreme(rng *rand.Rand, xs []float64, wantMax bool) int {
	best := xs[0]
	for _, x := range xs[1:] {
		if (wantMax && x > best) || (!wantMax && x < best) {
			best = x
		}
	}
	var ties []int
	for i, x := range xs {
		if x == best {
			ties = append(ties, i)
		}
	}
	return ties[rng.Intn(len(ties))]
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// Clustering runs the Table I(c) task: the user looks at the rendered
// sample of a Gaussian dataset and reports how many clusters they see.
// The simulated perception pipeline is: rasterize (with density weights
// when present), blur (humans see smoothed blobs, not individual dots),
// threshold, and count distinct modes. trueClusters is the ground truth.
func Clustering(sample []geom.Point, weights []int64, trueClusters int, cfg Config) (Result, error) {
	if len(sample) == 0 {
		return Result{}, fmt.Errorf("usersim: empty sample")
	}
	if weights != nil && len(weights) != len(sample) {
		return Result{}, fmt.Errorf("usersim: %d weights for %d sample points", len(weights), len(sample))
	}
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	success := 0
	for t := 0; t < cfg.Trials; t++ {
		if rng.Float64() < cfg.NoiseProb {
			// A noisy worker reports 1–4 clusters at random.
			if 1+rng.Intn(4) == trueClusters {
				success++
			}
			continue
		}
		// Perceptual parameters jitter per trial: different workers look
		// at different effective resolutions and thresholds.
		res := 40 + rng.Intn(17)               // raster resolution
		threshold := 0.18 + rng.Float64()*0.14 // mode cut, fraction of max
		got := CountClusters(sample, weights, res, threshold)
		if got == trueClusters {
			success++
		}
	}
	return Result{Success: float64(success) / float64(cfg.Trials), Trials: cfg.Trials}, nil
}

// CountClusters is the perceptual mode counter used by the clustering
// task; it is exported so tests and the harness can inspect the perception
// model directly. It rasterizes the (optionally weighted) sample at
// res×res, applies three passes of 3×3 box blur, and counts connected
// components of cells above threshold×maxMass.
func CountClusters(sample []geom.Point, weights []int64, res int, threshold float64) int {
	bounds := geom.Bounds(sample)
	if bounds.IsEmpty() || res <= 0 {
		return 0
	}
	// Pad the viewport slightly so border points do not saturate edges.
	pad := 0.05 * math.Hypot(bounds.Width(), bounds.Height())
	if pad == 0 {
		pad = 1
	}
	vp := geom.Rect{MinX: bounds.MinX - pad, MinY: bounds.MinY - pad, MaxX: bounds.MaxX + pad, MaxY: bounds.MaxY + pad}
	r := render.NewRaster(vp, res, res)
	if weights != nil {
		if _, err := r.PlotWeighted(sample, weights, 0); err != nil {
			return 0
		}
	} else {
		r.Plot(sample)
	}
	// Copy to a mutable grid and blur.
	g := make([]float64, res*res)
	for y := 0; y < res; y++ {
		for x := 0; x < res; x++ {
			g[y*res+x] = r.At(x, y)
		}
	}
	for pass := 0; pass < 3; pass++ {
		g = boxBlur(g, res)
	}
	var maxMass float64
	for _, v := range g {
		if v > maxMass {
			maxMass = v
		}
	}
	if maxMass == 0 {
		return 0
	}
	cut := threshold * maxMass
	// Connected components of super-threshold cells (8-connectivity).
	label := make([]int, res*res)
	comp := 0
	var stack []int
	for i, v := range g {
		if v < cut || label[i] != 0 {
			continue
		}
		comp++
		label[i] = comp
		stack = append(stack[:0], i)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cx, cy := c%res, c/res
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := cx+dx, cy+dy
					if nx < 0 || nx >= res || ny < 0 || ny >= res {
						continue
					}
					ni := ny*res + nx
					if g[ni] >= cut && label[ni] == 0 {
						label[ni] = comp
						stack = append(stack, ni)
					}
				}
			}
		}
	}
	return comp
}

func boxBlur(g []float64, res int) []float64 {
	out := make([]float64, len(g))
	for y := 0; y < res; y++ {
		for x := 0; x < res; x++ {
			var s float64
			n := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if nx < 0 || nx >= res || ny < 0 || ny >= res {
						continue
					}
					s += g[ny*res+nx]
					n++
				}
			}
			out[y*res+x] = s / float64(n)
		}
	}
	return out
}
