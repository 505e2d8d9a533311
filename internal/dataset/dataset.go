// Package dataset provides the datasets the paper evaluates on, as
// deterministic synthetic generators plus CSV and binary I/O:
//
//   - Geolife: the paper uses 24.4M GPS (latitude, longitude, altitude)
//     triples recorded around Beijing. The real corpus is large and not
//     redistributable, so GeolifeLike generates a statistically similar
//     substitute: trajectory random walks between urban hot-spots, heavy
//     spatial skew, and altitude correlated with distance from the city
//     centre.
//
//   - SPLOM: the synthetic five-column Gaussian benchmark from the binned
//     aggregation literature ([4],[39]), generated at any row count.
//
//   - Clusters: the 1–2 Gaussian datasets used for the clustering user
//     study (Table I(c)).
//
// All generators take an explicit seed and are reproducible across runs.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Dataset is a named point set with an optional per-point value column
// (altitude for Geolife-like data). Values is nil when the dataset has no
// value column; otherwise len(Values) == len(Points).
type Dataset struct {
	Name   string
	Points []geom.Point
	Values []float64
}

// Len returns the number of points.
func (d *Dataset) Len() int { return len(d.Points) }

// Bounds returns the bounding rectangle of the points.
func (d *Dataset) Bounds() geom.Rect { return geom.Bounds(d.Points) }

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.Values != nil && len(d.Values) != len(d.Points) {
		return fmt.Errorf("dataset %q: %d values for %d points", d.Name, len(d.Values), len(d.Points))
	}
	for i, p := range d.Points {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("dataset %q: point %d is not finite: %v", d.Name, i, p)
		}
	}
	return nil
}

// Beijing-area constants for the Geolife-like generator. The real Geolife
// corpus is centred on Beijing (~39.9°N, 116.4°E) with most mass inside the
// city and sparse trajectories reaching other provinces.
const (
	beijingLon = 116.4
	beijingLat = 39.9
)

// GeolifeOptions configures GeolifeLike.
type GeolifeOptions struct {
	// N is the number of points (required, positive).
	N int
	// Seed drives all randomness.
	Seed int64
	// Hotspots is the number of urban hot-spot clusters; 0 means 12.
	Hotspots int
	// WalkFraction is the fraction of points generated by trajectory
	// random walks (the rest are hot-spot draws); negative means 0.55.
	WalkFraction float64
}

// GeolifeLike generates the Geolife substitute: a heavily skewed GPS-like
// point cloud with an altitude value column. The structure combines
//
//   - hot-spot clusters: 2D Gaussians of widely varying scale placed around
//     the city centre (malls, campuses, stations — where GPS loggers dwell),
//   - trajectory walks: correlated random walks between hot-spots (roads
//     and commutes — the filamentary structure visible when zooming), and
//   - background: a thin uniform scatter over the whole extent (rural
//     traces).
//
// Altitude rises with distance from the centre plus terrain noise, giving
// the regression task of the user study a learnable signal.
func GeolifeLike(opt GeolifeOptions) *Dataset {
	if opt.N <= 0 {
		panic(fmt.Sprintf("dataset: GeolifeLike N must be positive, got %d", opt.N))
	}
	hotspots := opt.Hotspots
	if hotspots <= 0 {
		hotspots = 12
	}
	walkFrac := opt.WalkFraction
	if walkFrac < 0 {
		walkFrac = 0.55
	}
	if opt.WalkFraction == 0 {
		walkFrac = 0.55
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Hot-spot centres: a dense core ring plus a few distant satellites
	// (other cities people travelled to, as in the real corpus).
	type spot struct {
		c      geom.Point
		sigma  float64
		weight float64
	}
	spots := make([]spot, 0, hotspots)
	for i := 0; i < hotspots; i++ {
		var c geom.Point
		var sigma float64
		if i < hotspots-2 {
			// Urban: within ~1° of the centre. Cluster scales sit around
			// the ε = extent/100 kernel bandwidth (≈0.2° here), the
			// finest structure the paper's sampling kernel can resolve.
			c = geom.Pt(
				beijingLon+rng.NormFloat64()*0.7,
				beijingLat+rng.NormFloat64()*0.5,
			)
			sigma = 0.05 + rng.Float64()*0.25
		} else {
			// Satellite cities: a few degrees away, looser.
			c = geom.Pt(
				beijingLon+(rng.Float64()*8-4),
				beijingLat+(rng.Float64()*6-3),
			)
			sigma = 0.1 + rng.Float64()*0.2
		}
		spots = append(spots, spot{c: c, sigma: sigma, weight: 0.2 + rng.Float64()})
	}
	var totalW float64
	for _, s := range spots {
		totalW += s.weight
	}
	pickSpot := func() spot {
		r := rng.Float64() * totalW
		for _, s := range spots {
			r -= s.weight
			if r <= 0 {
				return s
			}
		}
		return spots[len(spots)-1]
	}

	pts := make([]geom.Point, 0, opt.N)
	nWalk := int(float64(opt.N) * walkFrac)
	// The real Geolife corpus is extremely skewed: the bounding box spans
	// continents (occasional logged trips abroad) while >99% of the mass
	// sits inside Beijing. A thin background of regional traces plus a
	// handful of far-flung travel points reproduces that extent blow-up,
	// which is what makes grid-stratified sampling degenerate on Geolife.
	nBackground := opt.N / 500 // 0.2% regional traces
	nTravel := opt.N / 2000    // 0.05% distant trips
	if nTravel < 2 {
		nTravel = 2
	}
	nSpot := opt.N - nWalk - nBackground - nTravel

	// Hot-spot draws.
	for i := 0; i < nSpot; i++ {
		s := pickSpot()
		pts = append(pts, geom.Pt(
			s.c.X+rng.NormFloat64()*s.sigma,
			s.c.Y+rng.NormFloat64()*s.sigma,
		))
	}
	// Trajectory walks between random hot-spot pairs: sample along the
	// segment with lateral jitter and autocorrelated wander, emitting
	// bursts of points like a GPS logger at fixed cadence.
	for len(pts) < nSpot+nWalk {
		a, b := pickSpot(), pickSpot()
		steps := 20 + rng.Intn(180)
		lateral := 0.01 + rng.Float64()*0.04
		wx, wy := 0.0, 0.0
		for s := 0; s < steps && len(pts) < nSpot+nWalk; s++ {
			t := float64(s) / float64(steps)
			wx += rng.NormFloat64() * lateral / 4
			wy += rng.NormFloat64() * lateral / 4
			pts = append(pts, geom.Pt(
				geom.Lerp(a.c.X, b.c.X, t)+wx+rng.NormFloat64()*lateral,
				geom.Lerp(a.c.Y, b.c.Y, t)+wy+rng.NormFloat64()*lateral,
			))
		}
	}
	// Regional background scatter (provincial traces).
	for len(pts) < nSpot+nWalk+nBackground {
		pts = append(pts, geom.Pt(
			beijingLon+(rng.Float64()*10-5),
			beijingLat+(rng.Float64()*8-4),
		))
	}
	// Distant travel points: these dominate the bounding box like the
	// corpus's cross-country trips do (the real extent is China-scale,
	// roughly 20 x 12 degrees around Beijing).
	for len(pts) < opt.N {
		pts = append(pts, geom.Pt(
			beijingLon+(rng.Float64()*20-10),
			beijingLat+(rng.Float64()*12-6),
		))
	}

	// Shuffle so the stream order carries no generation-phase signal — a
	// GPS corpus arrives interleaved across loggers, and streaming
	// samplers (reservoir, Interchange) assume exchangeable order.
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })

	// Altitude: base 40m at the centre rising with distance (Beijing sits
	// in a plain ringed by mountains), plus smooth terrain noise.
	values := make([]float64, len(pts))
	for i, p := range pts {
		d := p.Dist(geom.Pt(beijingLon, beijingLat))
		terrain := 30*math.Sin(p.X*3.1) + 25*math.Cos(p.Y*4.7) + 15*math.Sin(p.X*9.3+p.Y*7.1)
		values[i] = 40 + 180*d + terrain + rng.NormFloat64()*5
	}
	return &Dataset{Name: "geolife-like", Points: pts, Values: values}
}

// SPLOMOptions configures SPLOM generation.
type SPLOMOptions struct {
	// N is the number of rows (required, positive).
	N int
	// Seed drives all randomness.
	Seed int64
}

// SPLOMColumns is the number of columns in the SPLOM benchmark.
const SPLOMColumns = 5

// SPLOM generates the five-column Gaussian benchmark. Columns follow a
// single multivariate Gaussian with pairwise correlations in (-0.8, 0.8),
// matching the "single Gaussian cluster" character the paper notes makes
// SPLOM unsuitable for the clustering study. Rows returns the raw columns;
// the XY projection used for plots is columns 0 and 1.
type SPLOM struct {
	Cols [][]float64
	seed int64
}

// NewSPLOM generates a SPLOM table.
func NewSPLOM(opt SPLOMOptions) *SPLOM {
	if opt.N <= 0 {
		panic(fmt.Sprintf("dataset: SPLOM N must be positive, got %d", opt.N))
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	// Build a correlation structure via a random lower-triangular factor
	// (a poor man's Cholesky): x = L·z with unit-normal z.
	var l [SPLOMColumns][SPLOMColumns]float64
	for i := 0; i < SPLOMColumns; i++ {
		for j := 0; j <= i; j++ {
			if i == j {
				l[i][j] = 0.6 + rng.Float64()*0.4
			} else {
				l[i][j] = (rng.Float64() - 0.5) * 0.8
			}
		}
	}
	cols := make([][]float64, SPLOMColumns)
	for c := range cols {
		cols[c] = make([]float64, opt.N)
	}
	var z [SPLOMColumns]float64
	for r := 0; r < opt.N; r++ {
		for c := 0; c < SPLOMColumns; c++ {
			z[c] = rng.NormFloat64()
		}
		for c := 0; c < SPLOMColumns; c++ {
			var v float64
			for j := 0; j <= c; j++ {
				v += l[c][j] * z[j]
			}
			cols[c][r] = v * 10
		}
	}
	return &SPLOM{Cols: cols, seed: opt.Seed}
}

// N returns the row count.
func (s *SPLOM) N() int { return len(s.Cols[0]) }

// XY projects two columns into a Dataset for plotting. It panics on column
// indices outside [0, SPLOMColumns).
func (s *SPLOM) XY(cx, cy int) *Dataset {
	if cx < 0 || cx >= SPLOMColumns || cy < 0 || cy >= SPLOMColumns {
		panic(fmt.Sprintf("dataset: SPLOM column out of range: (%d,%d)", cx, cy))
	}
	pts := make([]geom.Point, s.N())
	for i := range pts {
		pts[i] = geom.Pt(s.Cols[cx][i], s.Cols[cy][i])
	}
	return &Dataset{Name: fmt.Sprintf("splom-%d-%d", cx, cy), Points: pts}
}

// ClusterSpec describes one Gaussian component for the clustering datasets.
type ClusterSpec struct {
	Center geom.Point
	SigmaX float64
	SigmaY float64
	Rho    float64 // correlation in [-1, 1]
	Weight float64 // relative share of points
}

// Clusters generates a Gaussian-mixture dataset from specs, reproducing the
// Table I(c) setup ("4 datasets, 2 of which were generated from 2 Gaussian
// distributions and the other 2 from a single Gaussian"). Weights are
// normalized internally.
func Clusters(name string, n int, seed int64, specs []ClusterSpec) *Dataset {
	if n <= 0 {
		panic(fmt.Sprintf("dataset: Clusters N must be positive, got %d", n))
	}
	if len(specs) == 0 {
		panic("dataset: Clusters needs at least one spec")
	}
	rng := rand.New(rand.NewSource(seed))
	var totalW float64
	for _, s := range specs {
		totalW += s.Weight
	}
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Float64() * totalW
		var sp ClusterSpec
		for _, s := range specs {
			r -= s.Weight
			if r <= 0 {
				sp = s
				break
			}
			sp = s
		}
		z1, z2 := rng.NormFloat64(), rng.NormFloat64()
		// Correlated bivariate normal via the standard transform.
		x := sp.Center.X + sp.SigmaX*z1
		y := sp.Center.Y + sp.SigmaY*(sp.Rho*z1+math.Sqrt(1-sp.Rho*sp.Rho)*z2)
		pts = append(pts, geom.Pt(x, y))
	}
	return &Dataset{Name: name, Points: pts}
}

// ClusterStudyDatasets returns the four datasets of the Table I(c) study:
// two drawn from two Gaussians (well separated, and moderately separated)
// and two from a single Gaussian (round, and elongated). The true cluster
// count is attached for scoring the simulated users.
func ClusterStudyDatasets(n int, seed int64) []ClusterStudyDataset {
	return []ClusterStudyDataset{
		{
			Dataset: Clusters("two-gaussians-separated", n, seed+1, []ClusterSpec{
				{Center: geom.Pt(-4, 0), SigmaX: 1, SigmaY: 1, Weight: 1},
				{Center: geom.Pt(4, 0), SigmaX: 1, SigmaY: 1, Weight: 1},
			}),
			TrueClusters: 2,
		},
		{
			Dataset: Clusters("two-gaussians-touching", n, seed+2, []ClusterSpec{
				{Center: geom.Pt(-1.8, -0.8), SigmaX: 1.1, SigmaY: 0.9, Rho: 0.2, Weight: 1.2},
				{Center: geom.Pt(1.8, 0.8), SigmaX: 0.9, SigmaY: 1.1, Rho: -0.2, Weight: 0.8},
			}),
			TrueClusters: 2,
		},
		{
			Dataset: Clusters("one-gaussian-round", n, seed+3, []ClusterSpec{
				{Center: geom.Pt(0, 0), SigmaX: 1.5, SigmaY: 1.5, Weight: 1},
			}),
			TrueClusters: 1,
		},
		{
			Dataset: Clusters("one-gaussian-elongated", n, seed+4, []ClusterSpec{
				{Center: geom.Pt(0, 0), SigmaX: 3, SigmaY: 0.8, Rho: 0.5, Weight: 1},
			}),
			TrueClusters: 1,
		},
	}
}

// ClusterStudyDataset pairs a dataset with its ground-truth cluster count.
type ClusterStudyDataset struct {
	*Dataset
	TrueClusters int
}
