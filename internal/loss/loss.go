// Package loss evaluates the visualization quality loss of a sample
// (paper Eq. 1):
//
//	Loss(S) = ∫ point-loss(x) dx,  point-loss(x) = 1 / Σ_{si∈S} κ(x, si)
//
// The integral is estimated by Monte Carlo over points drawn from the data
// domain, exactly as §VI-B2: draw candidate points uniformly from the
// bounding region, keep those within distance 0.1·scale of some dataset
// point (the paper uses an absolute 0.1 on Geolife's degree scale), and
// average the point losses. Because point losses overflow double precision
// when a sample leaves a probe uncovered, the paper aggregates with the
// median; this package reports both the median and a log-domain mean that
// cannot overflow.
package loss

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/proximity"
	"repro/internal/stats"
	"repro/internal/strtree"
)

// DefaultProbes is the paper's Monte Carlo budget: 1,000 random points.
const DefaultProbes = 1000

// DomainMembershipRadiusFraction scales the membership test: a probe
// belongs to the data domain when some dataset point lies within this
// fraction of the domain diagonal. The paper's absolute 0.1 on the Geolife
// extent (~tens of degrees) corresponds to roughly this fraction.
const DomainMembershipRadiusFraction = 0.005

// Options configures an Evaluator.
type Options struct {
	// Kernel is κ with the bandwidth used for sampling (required).
	Kernel proximity.Func
	// Probes is the Monte Carlo budget; 0 means DefaultProbes.
	Probes int
	// Seed makes probe generation deterministic.
	Seed int64
	// MembershipRadius overrides the domain membership radius; 0 derives
	// it from the dataset extent via DomainMembershipRadiusFraction.
	MembershipRadius float64
}

// Evaluator owns a fixed set of Monte Carlo probes drawn from a dataset's
// domain, so that different samples of the same dataset are scored against
// identical probes (paired comparison, lower variance). Construct with
// NewEvaluator.
type Evaluator struct {
	kern   proximity.Func
	probes []geom.Point
}

// NewEvaluator draws Monte Carlo probes from the domain of data. It returns
// an error when data is empty or no probe lands in the domain (degenerate
// extent), rather than silently scoring against nothing.
func NewEvaluator(data []geom.Point, opt Options) (*Evaluator, error) {
	if len(data) == 0 {
		return nil, errors.New("loss: empty dataset")
	}
	if opt.Kernel.Bandwidth() <= 0 {
		return nil, errors.New("loss: Options.Kernel is unset")
	}
	n := opt.Probes
	if n <= 0 {
		n = DefaultProbes
	}
	bounds := geom.Bounds(data)
	radius := opt.MembershipRadius
	if radius <= 0 {
		diag := geom.MaxPairwiseDist(data)
		radius = diag * DomainMembershipRadiusFraction
		if radius <= 0 {
			radius = 1e-9
		}
	}
	// Nearest-neighbour membership tests against the full dataset.
	tree := strtree.Build(data, nil)
	rng := rand.New(rand.NewSource(opt.Seed))
	probes := make([]geom.Point, 0, n)
	// Cap attempts so a pathological domain cannot loop forever; 1000×
	// oversampling is far beyond anything the experiments need.
	maxAttempts := n * 1000
	for attempts := 0; len(probes) < n && attempts < maxAttempts; attempts++ {
		p := geom.Pt(
			bounds.MinX+rng.Float64()*bounds.Width(),
			bounds.MinY+rng.Float64()*bounds.Height(),
		)
		if _, _, d, ok := tree.Nearest(p); ok && d <= radius {
			probes = append(probes, p)
		}
	}
	if len(probes) == 0 {
		return nil, fmt.Errorf("loss: no probes landed within radius %g of the data", radius)
	}
	return &Evaluator{kern: opt.Kernel, probes: probes}, nil
}

// NumProbes returns how many Monte Carlo probes the evaluator holds.
func (e *Evaluator) NumProbes() int { return len(e.probes) }

// Result holds the loss metrics of one sample.
type Result struct {
	// MedianLoss is the median of per-probe point losses — the paper's
	// reported aggregate (it is robust to the overflow-prone tail).
	MedianLoss float64
	// LogMeanLoss is log10 of the mean point loss computed in the log
	// domain (log-sum-exp), which cannot overflow; reported for analyses
	// that need a mean.
	LogMeanLoss float64
	// Covered is the fraction of probes whose kernel mass was above the
	// smallest positive double (i.e. the probe is "seen" by the sample).
	Covered float64
}

// Evaluate scores a sample against the evaluator's probes.
func (e *Evaluator) Evaluate(sample []geom.Point) (Result, error) {
	if len(sample) == 0 {
		return Result{}, errors.New("loss: empty sample")
	}
	// Index the sample: for each probe we need Σ κ(x, si). With the
	// Gaussian's 6ε support, only neighbours within support contribute
	// above double-precision noise, so range-query the sample's packed
	// STR tree for the support square.
	tree := strtree.Build(sample, nil)
	support := e.kern.Support()
	logLosses := make([]float64, len(e.probes)) // log10 of point-loss
	covered := 0
	var scratch []strtree.Neighbor
	for i, x := range e.probes {
		scratch = scratch[:0]
		scratch = tree.InRange(geom.RectAround(x, support), scratch)
		var mass float64
		for _, nb := range scratch {
			mass += e.kern.Eval(x, nb.P)
		}
		if mass > 0 {
			logLosses[i] = -math.Log10(mass)
			covered++
			continue
		}
		// The probe is unseen by every sampled point at double precision.
		// Reconstruct the loss in the log domain from the single nearest
		// sample point: Σκ ≈ κ(nearest), log10 loss = d²/(2ε²)·log10(e).
		_, _, d, _ := tree.Nearest(x)
		logLosses[i] = d * d / (2 * e.kern.Bandwidth() * e.kern.Bandwidth()) * math.Log10E
	}
	med := stats.Median(logLosses)
	return Result{
		MedianLoss:  math.Pow(10, med),
		LogMeanLoss: logMean(logLosses),
		Covered:     float64(covered) / float64(len(e.probes)),
	}, nil
}

// logMean returns log10( mean(10^x) ) computed stably via log-sum-exp.
func logMean(logs []float64) float64 {
	if len(logs) == 0 {
		return math.NaN()
	}
	m := stats.Max(logs)
	var s float64
	for _, l := range logs {
		s += math.Pow(10, l-m)
	}
	return m + math.Log10(s/float64(len(logs)))
}

// LogLossRatio returns the §VI-B2 comparison metric
//
//	log10( Loss(S) / Loss(D) )
//
// computed from median losses in the log domain. Loss(D) — the loss of the
// full dataset — is the smallest achievable, so the ratio is ≥ 0 up to
// Monte Carlo noise and equals 0 for a perfect sample.
func LogLossRatio(sampleLoss, datasetLoss Result) float64 {
	return math.Log10(sampleLoss.MedianLoss) - math.Log10(datasetLoss.MedianLoss)
}

// EvaluateRatio is a convenience that scores sample and the full dataset
// and returns the log-loss-ratio along with both results.
func (e *Evaluator) EvaluateRatio(sample, dataset []geom.Point) (ratio float64, s, d Result, err error) {
	s, err = e.Evaluate(sample)
	if err != nil {
		return 0, s, d, err
	}
	d, err = e.Evaluate(dataset)
	if err != nil {
		return 0, s, d, err
	}
	return LogLossRatio(s, d), s, d, nil
}
