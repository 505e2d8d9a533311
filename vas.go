// Package vas (module repro) is the public API of this repository: a Go
// implementation of Visualization-Aware Sampling (Park, Cafarella,
// Mozafari — ICDE 2016). VAS selects a K-point subset of a large 2D
// dataset that preserves the visual fidelity of scatter and map plots at
// arbitrary zoom, by minimizing a visualization-driven loss instead of the
// aggregation-oriented criteria of uniform or stratified sampling.
//
// Basic usage:
//
//	sample, err := vas.Build(points, vas.Options{K: 10_000})
//	// plot sample.Points instead of points
//
// For density-estimation or clustering workloads, attach the §V density
// embedding and render dots sized by count:
//
//	ws, err := sample.DensityEmbed(points)
//
// The package also exposes the baselines (Uniform, Stratified), the loss
// metric the samples optimize (EvaluateLoss), PNG rendering, and a small
// latency-bound serving layer (Catalog) mirroring the paper's Fig. 3
// architecture. Internal packages contain the substrates: the Interchange
// algorithm and exact solver (internal/vas), the packed STR tree
// (internal/strtree), the loss evaluator
// (internal/loss), dataset generators (internal/dataset), rendering
// (internal/render), the store/query engine (internal/store,
// internal/query) and the full experiment harness (internal/experiments).
package vas

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/loss"
	"repro/internal/obs"
	"repro/internal/proximity"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/store"
	core "repro/internal/vas"
	"repro/internal/viztime"
)

// Point is a 2D data point (X = longitude / x-axis column, Y = latitude /
// y-axis column).
type Point = geom.Point

// Rect is an axis-aligned rectangle used for viewports and zoom regions.
type Rect = geom.Rect

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Pred is a conjunctive range predicate over a named column — the shape
// dashboards emit for attribute slicing (time window, magnitude band).
// A row matches when Min <= value <= Max; NaN bounds mean unbounded.
type Pred = store.Pred

// ScanStats reports how a query's row selection was answered: index
// probe vs linear fallback, and how many grid cells the zone maps
// pruned for filtered queries.
type ScanStats = store.ScanStats

// Neighbor is one k-nearest-neighbour result row (see Catalog.Nearest).
type Neighbor = store.Neighbor

// Index-backend policy names accepted by Catalog.SetIndexBackend and
// the vasserve -index-backend flag.
const (
	IndexBackendAuto  = store.BackendAuto
	IndexBackendGrid  = store.BackendGrid
	IndexBackendRTree = store.BackendRTree
)

// Options configures Build.
type Options struct {
	// K is the sample size (required, positive).
	K int
	// Epsilon is the kernel bandwidth ε; 0 derives it from the data via
	// the paper's heuristic (max pairwise distance / 100).
	Epsilon float64
	// Kernel names the proximity family: "gaussian" (default, the
	// paper's), "epanechnikov", or "tricube".
	Kernel string
	// Variant names the Interchange implementation: "es" (default),
	// "no-es" (the unoptimized O(K²)-per-point baseline, same sample as
	// "es"), or "es+loc" (ES with pairs beyond the kernel's pair support
	// counted as zero).
	Variant string
	// Passes is how many times Build streams the data through
	// Interchange; 0 means 2. More passes converge closer to the
	// fixed point (Theorem 3); convergence stops passes early.
	Passes int
}

// Sample is a VAS sample: the selected points, their indices into the
// input, and the achieved optimization objective.
type Sample struct {
	// Points are the selected points.
	Points []Point
	// IDs are indices into the dataset passed to Build, parallel to
	// Points.
	IDs []int
	// Objective is Σ_{i<j} κ̃ over the sample — the quantity VAS
	// minimizes; comparable across samples of the same K and kernel.
	Objective float64
	// Passes is how many passes Interchange ran.
	Passes int

	kern proximity.Func
}

// Kernel returns the proximity function the sample was built with, for
// use with EvaluateLoss.
func (s *Sample) Kernel() proximity.Func { return s.kern }

// Build runs the Interchange algorithm over points and returns the VAS
// sample. Build streams the data Passes times (default 2) and stops early
// at the Interchange fixed point.
func Build(points []Point, opt Options) (*Sample, error) {
	if opt.K <= 0 {
		return nil, fmt.Errorf("vas: Options.K must be positive, got %d", opt.K)
	}
	if len(points) == 0 {
		return nil, errors.New("vas: empty dataset")
	}
	kern, err := resolveKernel(points, opt)
	if err != nil {
		return nil, err
	}
	variant := core.ES
	if opt.Variant != "" {
		variant, err = core.ParseVariant(opt.Variant)
		if err != nil {
			return nil, err
		}
	}
	passes := opt.Passes
	if passes <= 0 {
		passes = 2
	}
	if opt.K >= len(points) {
		ids := make([]int, len(points))
		for i := range ids {
			ids[i] = i
		}
		return &Sample{
			Points:    append([]Point(nil), points...),
			IDs:       ids,
			Objective: core.Objective(kern, points),
			kern:      kern,
		}, nil
	}
	ic := core.NewInterchange(core.Options{K: opt.K, Kernel: kern, Variant: variant})
	ran := core.Converge(ic, points, passes)
	return &Sample{
		Points:    ic.Sample(),
		IDs:       ic.SampleIDs(),
		Objective: ic.RecomputeObjective(),
		Passes:    ran,
		kern:      kern,
	}, nil
}

func resolveKernel(points []Point, opt Options) (proximity.Func, error) {
	kind := proximity.Gaussian
	if opt.Kernel != "" {
		var err error
		kind, err = proximity.ParseKind(opt.Kernel)
		if err != nil {
			return proximity.Func{}, err
		}
	}
	if opt.Epsilon > 0 {
		return proximity.New(kind, opt.Epsilon), nil
	}
	return proximity.FromData(kind, points)
}

// WeightedSample is a sample with §V density counts: Counts[i] is the
// number of dataset points represented by Points[i]. Render these with
// dot sizes or jitter proportional to the count.
type WeightedSample = core.WeightedSample

// DensityEmbed runs the second pass of §V over data (normally the same
// slice passed to Build) and returns the weighted sample.
func (s *Sample) DensityEmbed(data []Point) (*WeightedSample, error) {
	return core.DensityPass(s.Points, s.IDs, data)
}

// Uniform draws a uniform random sample of size k (reservoir, one pass).
func Uniform(points []Point, k int, seed int64) (pts []Point, ids []int, err error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("vas: k must be positive, got %d", k)
	}
	if len(points) == 0 {
		return nil, nil, errors.New("vas: empty dataset")
	}
	r := sampling.NewReservoir(k, seed)
	sampling.Run(r, points)
	return r.Sample(), r.SampleIDs(), nil
}

// Stratified draws a grid-stratified sample of size k over bins×bins
// cells with the most-balanced allocation.
func Stratified(points []Point, k, bins int, seed int64) (pts []Point, ids []int, err error) {
	if k <= 0 || bins <= 0 {
		return nil, nil, fmt.Errorf("vas: k and bins must be positive, got k=%d bins=%d", k, bins)
	}
	if len(points) == 0 {
		return nil, nil, errors.New("vas: empty dataset")
	}
	s := sampling.NewStratifiedSquare(k, geom.Bounds(points), bins, seed)
	sampling.Run(s, points)
	return s.Sample(), s.SampleIDs(), nil
}

// LossReport scores a sample against its dataset with the paper's loss.
type LossReport struct {
	// MedianLoss is the median Monte Carlo point loss of the sample.
	MedianLoss float64
	// LogLossRatio is log10(Loss(sample)/Loss(dataset)); 0 is perfect.
	LogLossRatio float64
	// Covered is the fraction of probes with non-negligible kernel mass.
	Covered float64
}

// EvaluateLoss computes the Eq. 1 loss of sample relative to data using
// the paper's Monte Carlo procedure (probes default to 1000; seed fixes
// them). A kernel bandwidth of 0 uses the data heuristic.
func EvaluateLoss(data, sample []Point, epsilon float64, probes int, seed int64) (LossReport, error) {
	var kern proximity.Func
	var err error
	if epsilon > 0 {
		kern = proximity.New(proximity.Gaussian, epsilon)
	} else {
		kern, err = proximity.FromData(proximity.Gaussian, data)
		if err != nil {
			return LossReport{}, err
		}
	}
	ev, err := loss.NewEvaluator(data, loss.Options{Kernel: kern, Probes: probes, Seed: seed})
	if err != nil {
		return LossReport{}, err
	}
	ratio, sRes, _, err := ev.EvaluateRatio(sample, data)
	if err != nil {
		return LossReport{}, err
	}
	return LossReport{MedianLoss: sRes.MedianLoss, LogLossRatio: ratio, Covered: sRes.Covered}, nil
}

// RenderPNG rasterizes points over the viewport (use the zero Rect for
// the data extent) at w×h pixels and writes a PNG.
func RenderPNG(out io.Writer, points []Point, viewport Rect, w, h int) error {
	if viewport == (Rect{}) || viewport.IsEmpty() {
		viewport = geom.Bounds(points)
	}
	if viewport.IsEmpty() {
		return errors.New("vas: nothing to render")
	}
	viewport = padViewport(viewport)
	r := render.NewRaster(viewport, w, h)
	r.Plot(points)
	return r.WritePNG(out)
}

// RenderWeightedPNG renders a density-embedded sample with dot areas
// proportional to counts (§V's visual encoding).
func RenderWeightedPNG(out io.Writer, ws *WeightedSample, viewport Rect, w, h int) error {
	if ws == nil || len(ws.Points) == 0 {
		return errors.New("vas: nothing to render")
	}
	if viewport == (Rect{}) || viewport.IsEmpty() {
		viewport = geom.Bounds(ws.Points)
	}
	viewport = padViewport(viewport)
	r := render.NewRaster(viewport, w, h)
	if _, err := r.PlotWeighted(ws.Points, ws.Counts, 0); err != nil {
		return err
	}
	return r.WritePNG(out)
}

// RenderMapPNG renders a value-colored map plot (Fig. 1 style): values
// (e.g. altitude) are encoded as color.
func RenderMapPNG(out io.Writer, points []Point, values []float64, viewport Rect, w, h int) error {
	if len(points) == 0 {
		return errors.New("vas: nothing to render")
	}
	if viewport == (Rect{}) || viewport.IsEmpty() {
		viewport = geom.Bounds(points)
	}
	viewport = padViewport(viewport)
	m := render.NewMapPlot(viewport, w, h)
	if err := m.Plot(points, values); err != nil {
		return err
	}
	return m.WritePNG(out)
}

// Zoom returns a viewport showing 1/factor of each axis of bounds centred
// on c (clamped inside bounds).
func Zoom(bounds Rect, c Point, factor float64) (Rect, error) {
	return render.ZoomViewport(bounds, c, factor)
}

// padViewport adds a 2% margin so boundary points are visible.
func padViewport(v Rect) Rect {
	px, py := v.Width()*0.02, v.Height()*0.02
	if px == 0 {
		px = 1
	}
	if py == 0 {
		py = 1
	}
	return Rect{MinX: v.MinX - px, MinY: v.MinY - py, MaxX: v.MaxX + px, MaxY: v.MaxY + py}
}

// Catalog is the Fig. 3 serving layer: it stores a base table plus
// pre-built samples of several sizes and answers visualization queries
// within a latency budget by picking the largest sample that fits.
type Catalog struct {
	st      *store.Store
	planner *query.Planner

	srvMu sync.Mutex
	srv   *server.Server
	// HTTP-layer resilience knobs, applied when the server is created on
	// the first Handler call (see SetRequestTimeout / SetAdmissionLimits).
	reqTimeout   time.Duration
	maxInFlight  int
	queueDepth   int
	queueTimeout time.Duration

	// provMu guards prov, the per-base-table provenance the snapshot
	// subsystem persists (and staleness checks compare against).
	provMu sync.Mutex
	prov   map[string]snapshot.Provenance
	// coldStart remembers how this catalog was populated (snapshot load
	// vs full rebuild) and how long that took, for /metrics.
	coldSource string
	coldDur    time.Duration

	// snapMu serializes everything that must agree about what is on
	// disk versus in memory: appends (store write + tail-log record are
	// one critical section), full saves (catalog capture + save + tail
	// truncation), and loads. snapDir is the snapshot directory the
	// catalog is bound to ("" = no persistence); tailRows counts, per
	// table, the rows living only in the tail log since the last full
	// save (the re-save threshold is per table — a big table's backlog
	// must not trigger a full-catalog save on a small table's behalf).
	snapMu   sync.Mutex
	snapDir  string
	tailRows map[string]int64
	resaving atomic.Bool
	resaveWG sync.WaitGroup
	// snapErr marks the snapshot persistence as degraded: a tail-log
	// write or background re-save failed. While set, appends no longer
	// touch the log (a failed write followed by successful ones would
	// turn a tolerated torn-final-record into mid-file corruption) and
	// keep returning the error; a successful SaveSnapshot — retried in
	// the background with backoff — folds everything and clears it.
	snapErr     error
	lastResave  time.Time
	resaveEvery time.Duration
	// resaveBackoff spaces FAILING background re-save retries with
	// jittered exponential delays (obs.Backoff); a successful save
	// resets it so the next backlog-triggered save fires immediately.
	resaveBackoff obs.Backoff
	// snapEpoch pairs the snapshot base file with its tail log: every
	// tail record is stamped with the epoch of the save it rides on, and
	// SaveSnapshot bumps it. A crash between writing the new base file
	// and truncating the old tail leaves a tail from an earlier epoch on
	// disk; LoadSnapshot discards it (those records are already folded
	// into the base) instead of replaying the rows twice.
	snapEpoch uint64
	// readOnlyOnDegrade, when set, turns sticky snapshot degradation
	// (snapErr != nil) into an explicit read-only mode: appends and
	// deletes are rejected up-front with server.ErrDegraded instead of
	// mutating memory that can no longer be made durable.
	readOnlyOnDegrade bool

	// compactFrac is the auto-compaction threshold applied to every
	// base table the catalog loads (see store.Table.SetAutoCompact).
	compactFrac float64
	// indexBackend is the spatial-index backend policy applied to every
	// table the catalog loads or restores ("" = auto; see
	// store.Table.SetIndexBackend).
	indexBackend string
}

// DefaultCompactFraction is the auto-compaction threshold applied to
// base tables the catalog loads: a background compaction fires when a
// table's delta exceeds this fraction of its indexed rows.
const DefaultCompactFraction = 0.10

// NewCatalog returns an empty catalog using the paper's Tableau latency
// model to convert budgets to tuple counts. (The model is pluggable in
// internal/query for other deployments.)
func NewCatalog() *Catalog {
	st := store.New()
	return &Catalog{
		st:            st,
		planner:       query.NewPlanner(st, viztime.Tableau()),
		prov:          make(map[string]snapshot.Provenance),
		compactFrac:   DefaultCompactFraction,
		resaveBackoff: obs.Backoff{Base: resaveRetryBase, Max: resaveRetryMax},
	}
}

// SetCompactFraction overrides the auto-compaction threshold applied to
// tables loaded AFTER the call (LoadTable, LoadSnapshot): a table whose
// delta exceeds frac of its indexed rows compacts in the background.
// frac <= 0 disables automatic compaction.
func (c *Catalog) SetCompactFraction(frac float64) {
	c.snapMu.Lock()
	c.compactFrac = frac
	c.snapMu.Unlock()
}

func (c *Catalog) compactFraction() float64 {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return c.compactFrac
}

// SetIndexBackend sets the spatial-index backend policy applied to
// every table the catalog loads (LoadTable, BuildSamples) or restores
// (LoadSnapshot) from now on: "auto" (the default — per-table choice
// from grid-occupancy skew), "grid", or "rtree". On a snapshot restore
// a table whose persisted index already complies keeps it; one that
// does not is rebuilt under the policy.
func (c *Catalog) SetIndexBackend(mode string) error {
	switch mode {
	case IndexBackendAuto, "", IndexBackendGrid, IndexBackendRTree:
	default:
		return fmt.Errorf("vas: unknown index backend %q (want auto, grid, or rtree)", mode)
	}
	c.snapMu.Lock()
	c.indexBackend = mode
	c.snapMu.Unlock()
	return nil
}

func (c *Catalog) indexBackendMode() string {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return c.indexBackend
}

// LoadTable registers a base table named name with columns x and y, or
// replaces its contents when the table already exists. The (x, y) pair is
// spatially indexed at load time, so viewport queries and tile renders
// over the base table are index probes. (Re)loading invalidates the
// table's cached tiles and extent: exact and fallback renders never
// serve pixels from the previous contents. Samples built from the old
// contents keep serving until refreshed — call BuildSamples again after
// a reload; it replaces the previous sample tables in place.
func (c *Catalog) LoadTable(name string, points []Point) error {
	t, err := c.st.Table(name)
	if err != nil {
		if t, err = c.st.CreateTable(name, "x", "y"); err != nil {
			return err
		}
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.X
		ys[i] = p.Y
	}
	if err := t.SetIndexBackend(c.indexBackendMode()); err != nil {
		return err
	}
	if err := t.BulkLoad(xs, ys); err != nil {
		return err
	}
	if err := t.IndexOn("x", "y"); err != nil {
		return err
	}
	t.SetAutoCompact(c.compactFraction())
	// New contents, new provenance; the empty build spec marks that no
	// samples have been built against these contents yet, so a snapshot
	// saved now can never be mistaken for one carrying fresh samples.
	c.provMu.Lock()
	c.prov[name] = snapshot.Provenance{
		Table:      name,
		SourceHash: snapshot.HashColumns(xs, ys),
		Rows:       int64(len(points)),
	}
	c.provMu.Unlock()
	c.srvMu.Lock()
	if c.srv != nil {
		c.srv.InvalidateTable(name)
	}
	c.srvMu.Unlock()
	return nil
}

// BuildSamples builds and registers VAS samples of each size for the
// named table, optionally with density embedding. This is the offline
// preprocessing step of §II-D.
func (c *Catalog) BuildSamples(table string, points []Point, sizes []int, withDensity bool, opt Options) error {
	for _, k := range sizes {
		opt.K = k
		s, err := Build(points, opt)
		if err != nil {
			return fmt.Errorf("vas: building %d-point sample for %q: %w", k, table, err)
		}
		var counts []int64
		if withDensity {
			ws, err := s.DensityEmbed(points)
			if err != nil {
				return err
			}
			counts = ws.Counts
		}
		name := fmt.Sprintf("%s_vas_%d", table, k)
		meta := store.SampleMeta{Source: table, Method: "vas", XCol: "x", YCol: "y"}
		if err := query.LoadSample(c.st, name, meta, s.Points, counts); err != nil {
			return err
		}
	}
	// Record how the samples were built, completing the table's
	// provenance: a later SaveSnapshot persists it, and SnapshotFresh
	// compares against it to decide load-vs-rebuild.
	c.provMu.Lock()
	p := c.prov[table]
	p.Table = table
	p.Build = buildSpec(sizes, withDensity, opt)
	c.prov[table] = p
	c.provMu.Unlock()
	// Registering samples changes what tile requests resolve to; drop any
	// tiles the HTTP layer rendered from the previous sample set.
	c.srvMu.Lock()
	if c.srv != nil {
		c.srv.InvalidateTable(table)
	}
	c.srvMu.Unlock()
	return nil
}

// RegisterSample publishes an externally built sample for table without
// re-running the Interchange build — the path cmd/vasgen uses to
// assemble a snapshot from the sample it already built for its output
// file. counts attaches the §V density embedding when non-nil (parallel
// to s.Points). The sample table is indexed and registered exactly as
// BuildSamples would register one of the same size.
//
// Provenance: the table's build spec gains a "registered k=…" entry
// rather than the canonical BuildSamples spec, so SnapshotFresh —
// which answers "would BuildSamples(args) reproduce this catalog?" —
// reports catalogs assembled this way as stale; their freshness is the
// assembling caller's to decide.
func (c *Catalog) RegisterSample(table string, s *Sample, counts []int64) error {
	if s == nil || len(s.Points) == 0 {
		return errors.New("vas: RegisterSample: empty sample")
	}
	if counts != nil && len(counts) != len(s.Points) {
		return fmt.Errorf("vas: RegisterSample: %d counts for %d points", len(counts), len(s.Points))
	}
	name := fmt.Sprintf("%s_vas_%d", table, len(s.Points))
	meta := store.SampleMeta{Source: table, Method: "vas", XCol: "x", YCol: "y"}
	if err := query.LoadSample(c.st, name, meta, s.Points, counts); err != nil {
		return err
	}
	c.provMu.Lock()
	p := c.prov[table]
	p.Table = table
	spec := fmt.Sprintf("registered k=%d density=%t", len(s.Points), counts != nil)
	if p.Build == "" {
		p.Build = spec
	} else {
		p.Build += "; " + spec
	}
	c.prov[table] = p
	c.provMu.Unlock()
	c.srvMu.Lock()
	if c.srv != nil {
		c.srv.InvalidateTable(table)
	}
	c.srvMu.Unlock()
	return nil
}

// Append adds a batch of points to a base table while it serves: the
// rows are absorbed into the table's delta index in the same critical
// section they become visible in (scans stay at indexed speed; crossing
// the compaction threshold folds them into a fresh immutable generation
// in the background), the batch is recorded in the snapshot tail log
// when the catalog is bound to a snapshot directory (a restart replays
// it — no rebuild), and the table's cached tiles are invalidated.
//
// A non-nil error with rows already visible (tail-log write failure)
// means durability is degraded, not that the append was rejected: the
// rows serve until the process exits, and the catalog keeps retrying a
// full re-save in the background to restore persistence. Samples are
// not refreshed by Append: they keep representing the distribution they
// were built from until the next BuildSamples. Exact queries and
// tail-aware probes see appended rows immediately.
func (c *Catalog) Append(table string, pts []Point) error {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	n, err := c.appendCols(table, [][]float64{xs, ys})
	if n > 0 {
		// The table changed: stale tiles must go even when the tail log
		// write failed afterwards.
		c.srvMu.Lock()
		if c.srv != nil {
			c.srv.InvalidateTable(table)
		}
		c.srvMu.Unlock()
	}
	return err
}

// tailResaveFraction is how large the tail log may grow, relative to
// its table's rows, before a background full re-save folds it into the
// base snapshot file. resaveRetryBase and resaveRetryMax bound how
// often a FAILING re-save is retried — each attempt encodes the whole
// catalog under snapMu, so back-to-back retries against a broken
// directory would stall every append. Retries back off exponentially
// with jitter (see obs.Backoff) so a fleet of degraded servers does
// not hammer shared storage in lockstep.
const (
	tailResaveFraction = 0.25
	resaveRetryBase    = 2 * time.Second
	resaveRetryMax     = 60 * time.Second
)

// appendCols is the shared append path (Catalog.Append and the HTTP
// /v1/append hook): one snapMu critical section covers the store write
// and the tail-log record, so a concurrent SaveSnapshot can never
// capture the rows into the base file AND leave them in the tail log
// (which a later load would replay twice). Returns the rows appended —
// n > 0 with a non-nil error means the rows are live but not durable
// (see Append). Tile invalidation is the caller's (both callers already
// bump the epoch).
func (c *Catalog) appendCols(table string, cols [][]float64) (int, error) {
	t, err := c.st.Table(table)
	if err != nil {
		return 0, err
	}
	if len(cols) == 0 || len(cols[0]) == 0 {
		return 0, nil
	}
	n := len(cols[0])
	c.snapMu.Lock()
	if err := c.rejectIfReadOnly("append"); err != nil {
		c.snapMu.Unlock()
		return 0, err
	}
	if err := t.AppendRows(cols...); err != nil {
		c.snapMu.Unlock()
		return 0, err
	}
	var tailErr error
	resave := false
	if c.snapDir != "" {
		switch {
		case c.snapErr != nil:
			// The log is degraded; appending past an earlier failed
			// write could corrupt it mid-file. Keep surfacing the
			// degradation and lean on the re-save retry below.
			tailErr = fmt.Errorf("vas: append not durable (snapshot persistence degraded): %w", c.snapErr)
			resave = true
		default:
			jt := obs.StartJob("tail_write")
			err := snapshot.AppendTail(filepath.Join(c.snapDir, TailFile), table, cols, c.snapEpoch)
			jt.End()
			if err != nil {
				c.snapErr = err
				tailErr = fmt.Errorf("vas: append durable tail: %w", err)
				resave = true
			} else {
				if c.tailRows == nil {
					c.tailRows = make(map[string]int64)
				}
				c.tailRows[table] += int64(n)
				resave = float64(c.tailRows[table]) >= tailResaveFraction*float64(t.NumRows())
			}
		}
		if resave && time.Since(c.lastResave) < c.resaveInterval() {
			resave = false
		}
	}
	c.snapMu.Unlock()
	if resave {
		c.kickResave()
	}
	return n, tailErr
}

// kickResave launches the background full re-save unless one is already
// in flight. Shared by the append and delete paths.
func (c *Catalog) kickResave() {
	if !c.resaving.CompareAndSwap(false, true) {
		return
	}
	c.resaveWG.Add(1)
	go func() {
		defer c.resaveWG.Done()
		defer c.resaving.Store(false)
		c.snapMu.Lock()
		dir := c.snapDir
		c.lastResave = time.Now()
		c.snapMu.Unlock()
		if dir != "" {
			// A full save folds the in-memory state (tail included) into
			// the base file, truncates the log, and clears any
			// degradation; losing the race to a concurrent explicit
			// save is fine — it does the same thing. A failure stays
			// recorded in snapErr until a retry succeeds.
			if err := c.SaveSnapshot(dir); err != nil {
				c.snapMu.Lock()
				c.snapErr = err
				// Stretch the gap before the next retry: the whole
				// catalog is re-encoded per attempt, and the directory
				// is still broken.
				c.resaveBackoff.Advance()
				c.snapMu.Unlock()
			}
		}
	}()
}

// DeleteRect tombstones every base-table row whose (x, y) lies inside r
// (the zero Rect deletes every row, matching scan conventions) and
// returns how many rows were newly deleted. Deleted rows vanish from
// every subsequent query and tile atomically; the physical space is
// reclaimed by the table's next background compaction. The predicate is
// recorded in the snapshot tail log when the catalog is bound to a
// snapshot directory, so a restart replays it in order with the appends
// around it. Samples are not refreshed by a delete: like Append, the
// pre-built samples keep representing the distribution they were built
// from until the next BuildSamples.
func (c *Catalog) DeleteRect(table string, r Rect) (int, error) {
	if r == (Rect{}) {
		return c.DeleteWhere(table, nil)
	}
	return c.DeleteWhere(table, []Pred{
		{Column: "x", Min: r.MinX, Max: r.MaxX},
		{Column: "y", Min: r.MinY, Max: r.MaxY},
	})
}

// DeleteWhere tombstones every base-table row matching all predicates
// (conjunctive range semantics; an empty list deletes every row). See
// DeleteRect for visibility, durability, and sample-staleness notes.
func (c *Catalog) DeleteWhere(table string, preds []Pred) (int, error) {
	n, err := c.deleteWhere(table, preds)
	if n > 0 {
		c.srvMu.Lock()
		if c.srv != nil {
			c.srv.InvalidateTable(table)
		}
		c.srvMu.Unlock()
	}
	return n, err
}

// deleteWhere is the shared delete path (Catalog.DeleteWhere and the
// HTTP /v1/delete hook): one snapMu critical section covers the store
// tombstone publish and the tail-log record, exactly like appendCols,
// so a save can never fold the delete into the base file AND leave its
// log record to be replayed again. The tail record carries the
// predicate, not the matched row ids — ids shift when compaction
// reclaims dead rows, but replaying the predicate stream in order
// reproduces the same visible rows. Tile invalidation is the caller's.
func (c *Catalog) deleteWhere(table string, preds []Pred) (int, error) {
	t, err := c.st.Table(table)
	if err != nil {
		return 0, err
	}
	c.snapMu.Lock()
	if err := c.rejectIfReadOnly("delete"); err != nil {
		c.snapMu.Unlock()
		return 0, err
	}
	n, err := t.DeleteWhere(preds)
	if err != nil {
		c.snapMu.Unlock()
		return 0, err
	}
	var tailErr error
	resave := false
	// A delete that matched nothing changed nothing: logging it would
	// only grow the replay (replay reproduces the same no-op).
	if c.snapDir != "" && n > 0 {
		switch {
		case c.snapErr != nil:
			tailErr = fmt.Errorf("vas: delete not durable (snapshot persistence degraded): %w", c.snapErr)
			resave = true
		default:
			tp := make([]snapshot.TailPred, len(preds))
			for i, p := range preds {
				tp[i] = snapshot.TailPred{Col: p.Column, Min: p.Min, Max: p.Max}
			}
			jt := obs.StartJob("tail_write")
			err := snapshot.AppendTailDelete(filepath.Join(c.snapDir, TailFile), table, tp, c.snapEpoch)
			jt.End()
			if err != nil {
				c.snapErr = err
				tailErr = fmt.Errorf("vas: delete durable tail: %w", err)
				resave = true
			} else {
				if c.tailRows == nil {
					c.tailRows = make(map[string]int64)
				}
				// Deleted rows count toward the re-save threshold like
				// appended ones: both are mutations living only in the
				// log until the next full save folds them in.
				c.tailRows[table] += int64(n)
				resave = float64(c.tailRows[table]) >= tailResaveFraction*float64(t.NumRows())
			}
		}
		if resave && time.Since(c.lastResave) < c.resaveInterval() {
			resave = false
		}
	}
	c.snapMu.Unlock()
	if resave {
		c.kickResave()
	}
	return n, tailErr
}

// SetTTL installs a sliding-window retention policy on a base table:
// rows whose value in col (float64 Unix seconds) is at least maxAge old
// are tombstoned — and eventually physically dropped — by the table's
// background compactions. A non-positive maxAge clears the policy.
//
// The policy itself is in-memory configuration, not snapshot state:
// re-apply it after LoadSnapshot (as cmd/vasserve does from its flags).
// Rows a TTL sweep tombstones are not tail-logged individually; they
// are captured by the next full save, and any sweep lost to a crash is
// simply re-run by the first compaction after the policy is re-applied.
func (c *Catalog) SetTTL(table, col string, maxAge time.Duration) error {
	t, err := c.st.Table(table)
	if err != nil {
		return err
	}
	return t.SetTTL(col, maxAge)
}

// WaitBackground blocks until any in-flight background re-save has
// finished: afterwards no catalog goroutine is still writing to the
// snapshot directory, and SnapshotErr reflects the outcome of every
// re-save attempt so far. For orderly shutdown and tests.
func (c *Catalog) WaitBackground() {
	c.resaveWG.Wait()
}

// resaveInterval returns the minimum gap between background re-save
// attempts: fixed when overridden (tests), otherwise the jittered
// exponential backoff delay for the current failure streak (zero while
// healthy — a backlog-triggered save fires immediately). Caller holds
// snapMu.
func (c *Catalog) resaveInterval() time.Duration {
	if c.resaveEvery > 0 {
		return c.resaveEvery
	}
	return c.resaveBackoff.Current()
}

// rejectIfReadOnly enforces the opt-in read-only degraded mode: when
// enabled and snapshot persistence is degraded, mutations are rejected
// up-front with an error wrapping server.ErrDegraded (the HTTP layer
// maps it to 503 + Retry-After) instead of growing in-memory state that
// can no longer be made durable. Caller holds snapMu.
func (c *Catalog) rejectIfReadOnly(op string) error {
	if c.readOnlyOnDegrade && c.snapErr != nil {
		return fmt.Errorf("vas: %s rejected (%w: snapshot persistence degraded): %v", op, server.ErrDegraded, c.snapErr)
	}
	return nil
}

// SetReadOnlyOnDegrade controls the explicit read-only degraded mode:
// when on, a catalog whose snapshot persistence is degraded
// (SnapshotErr != nil) rejects Append/Delete with an error wrapping
// server.ErrDegraded rather than accepting rows it cannot persist.
// Queries keep serving either way. Off by default, preserving the
// accept-but-report contract (see docs/RESILIENCE.md for the
// trade-off).
func (c *Catalog) SetReadOnlyOnDegrade(on bool) {
	c.snapMu.Lock()
	c.readOnlyOnDegrade = on
	c.snapMu.Unlock()
}

// SnapshotErr reports whether snapshot persistence is degraded: the
// last tail-log write or background re-save failed and no save has
// succeeded since. A degraded catalog keeps serving (appended rows stay
// live in memory) and keeps retrying a full re-save in the background.
func (c *Catalog) SnapshotErr() error {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return c.snapErr
}

// buildSpec canonicalizes the arguments of BuildSamples into the
// provenance string snapshots persist: two builds agree on the spec
// exactly when they would produce the same sample set from the same
// data.
func buildSpec(sizes []int, withDensity bool, opt Options) string {
	return fmt.Sprintf("sizes=%v density=%t epsilon=%g kernel=%q variant=%q passes=%d",
		sizes, withDensity, opt.Epsilon, opt.Kernel, opt.Variant, opt.Passes)
}

// SetRequestTimeout sets the per-request deadline the HTTP layer
// applies to heavy routes (query, nearest, tile, append, delete,
// tables): a request that exceeds it is canceled cooperatively inside
// the scan kernels and answered 503 with Retry-After. Zero (the
// default) disables the deadline. Must be called before the first
// Handler call; later calls have no effect on an already-built server.
func (c *Catalog) SetRequestTimeout(d time.Duration) {
	c.srvMu.Lock()
	c.reqTimeout = d
	c.srvMu.Unlock()
}

// SetAdmissionLimits configures HTTP admission control for heavy
// routes: at most maxInFlight requests execute concurrently per route,
// up to queueDepth more wait up to queueTimeout for a slot, and
// everything beyond that is shed immediately (503 "capacity"; a queue
// wait that times out is 429 "queue_timeout" — both carry Retry-After
// and count in vasserve_requests_shed_total). maxInFlight <= 0 disables
// admission control. Must be called before the first Handler call.
func (c *Catalog) SetAdmissionLimits(maxInFlight, queueDepth int, queueTimeout time.Duration) {
	c.srvMu.Lock()
	c.maxInFlight = maxInFlight
	c.queueDepth = queueDepth
	c.queueTimeout = queueTimeout
	c.srvMu.Unlock()
}

// Handler returns the catalog's HTTP serving layer (created on first use
// and shared by later calls): budget-bound point queries, PNG map tiles
// backed by a sharded LRU tile cache, a catalog listing, and health and
// metrics endpoints. See internal/server for the routes. The handler
// serves concurrently with ongoing BuildSamples calls; newly registered
// samples invalidate that table's cached tiles.
func (c *Catalog) Handler() http.Handler {
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	if c.srv == nil {
		c.srv = server.New(c.st, c.planner, server.Config{
			// Ingest batches route through the catalog so every append
			// also lands in the snapshot tail log (durable across a
			// restart); the server bumps the tile epoch itself.
			AppendHook: c.appendCols,
			// Deletes likewise route through the catalog so the
			// predicate lands in the tail log; the server bumps the
			// tile epoch itself.
			DeleteHook: c.deleteWhere,
			// Per-table tail-log durability for the
			// vasserve_tail_log_degraded gauge.
			TailStatus: c.tailStatus,
			// Resilience knobs (zero values disable each mechanism).
			RequestTimeout: c.reqTimeout,
			MaxInFlight:    c.maxInFlight,
			QueueDepth:     c.queueDepth,
			QueueTimeout:   c.queueTimeout,
		})
		if c.coldSource != "" {
			c.srv.SetColdStart(c.coldSource, c.coldDur)
		}
	}
	return c.srv
}

// tailStatus reports, per base table, whether snapshot-tail durability
// is degraded, for the /metrics vasserve_tail_log_degraded gauge. It
// returns nil when the catalog is not bound to a snapshot directory —
// without persistence there is no tail log to degrade.
func (c *Catalog) tailStatus() []server.TailStatus {
	c.snapMu.Lock()
	dir, degraded := c.snapDir, c.snapErr != nil
	c.snapMu.Unlock()
	if dir == "" {
		return nil
	}
	c.provMu.Lock()
	names := make([]string, 0, len(c.prov))
	for name := range c.prov {
		names = append(names, name)
	}
	c.provMu.Unlock()
	sort.Strings(names)
	out := make([]server.TailStatus, len(names))
	for i, name := range names {
		out[i] = server.TailStatus{Table: name, Degraded: degraded}
	}
	return out
}

// SnapshotFile is the file name SaveSnapshot writes (and LoadSnapshot
// reads) inside the snapshot directory. TailFile is the append-only
// ingest log that rides next to it: batches appended since the last
// full save, replayed by LoadSnapshot and folded in (then deleted) by
// the next SaveSnapshot.
const (
	SnapshotFile = "catalog.snap"
	TailFile     = "catalog.tail"
)

// SaveSnapshot persists the catalog's entire serving state —
// every table's columns (appended rows included), CSR grid indexes and
// zone maps, the sample lineage, and the per-table provenance — to
// dir/catalog.snap in the versioned, checksummed binary format of
// internal/snapshot. The write is atomic (temp file + rename), so a
// crash mid-save leaves the previous snapshot intact. Rows that were
// living only in the tail log are folded into the base file by the
// capture, so the log is truncated in the same critical section; the
// save also binds the catalog to dir, making later Appends durable
// there. A later LoadSnapshot restores the catalog without re-running
// BuildSamples or any index build.
func (c *Catalog) SaveSnapshot(dir string) error {
	jt := obs.StartJob("snapshot_save")
	defer jt.End()
	// snapMu makes capture + save + tail truncation atomic with respect
	// to appendCols: no append can slip between the capture (which
	// folds every in-memory row into the base file) and the tail
	// removal, where its log record would be deleted unfolded.
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	cat := &snapshot.Catalog{}
	// One critical section for membership + lineage: a BuildSamples
	// racing the save can never leave a lineage entry in the snapshot
	// whose sample table is missing from it (which would make the file
	// unloadable).
	cat.Tables, cat.Samples = c.st.SnapshotCatalog()
	c.provMu.Lock()
	for _, p := range c.prov {
		cat.Provenance = append(cat.Provenance, p)
	}
	c.provMu.Unlock()
	// Stamp the new base file with the next epoch BEFORE touching the
	// tail: if the process dies between the rename below and RemoveTail,
	// the surviving tail carries the previous epoch and LoadSnapshot
	// discards it instead of replaying rows the capture already folded
	// into the base.
	cat.Epoch = c.snapEpoch + 1
	if err := snapshot.Save(filepath.Join(dir, SnapshotFile), cat); err != nil {
		return err
	}
	c.snapEpoch = cat.Epoch
	if err := snapshot.RemoveTail(filepath.Join(dir, TailFile)); err != nil {
		return fmt.Errorf("vas: truncating folded tail log: %w", err)
	}
	c.snapDir = dir
	c.tailRows = nil
	// Everything in memory is now in the base file: any earlier tail or
	// re-save failure is healed, and retry pacing starts over.
	c.snapErr = nil
	c.resaveBackoff.Reset()
	return nil
}

// LoadSnapshot restores a catalog saved by SaveSnapshot from
// dir/catalog.snap, then replays dir/catalog.tail — the batches
// appended since that save — through the delta-index append path, so a
// server restarted mid-ingest comes back with every appended row and
// never rebuilds a sample or an index. Every table is validated
// (framing and checksums by the decoder, every structural index
// invariant by the store) and the tail log fully parsed and
// shape-checked before anything is published; the whole batch then
// lands in one critical section under the same tile-invalidation
// machinery LoadTable uses — a corrupt, truncated, or version-skewed
// snapshot (or tail log) returns an error and leaves the catalog
// exactly as it was, never partially loaded.
//
// Freshness is the caller's decision: compare SnapshotFresh against the
// data a rebuild would use, and rebuild (then SaveSnapshot again) when
// it reports stale. Appended batches do not enter that comparison —
// provenance describes the loaded base data, and the tail rides on top.
func (c *Catalog) LoadSnapshot(dir string) error {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	cat, err := snapshot.Load(filepath.Join(dir, SnapshotFile))
	if err != nil {
		return err
	}
	tail, tailEpoch, err := snapshot.LoadTail(filepath.Join(dir, TailFile))
	if err != nil {
		return fmt.Errorf("vas: snapshot tail %s: %w", filepath.Join(dir, TailFile), err)
	}
	// Pair the tail with the base file by epoch. A tail from an EARLIER
	// save is the footprint of a crash between snapshot.Save and
	// RemoveTail: its records are already folded into the base, and
	// replaying them would duplicate every row. Discard it. A tail from
	// a LATER epoch than the base can only mean the base file was
	// swapped or rolled back underneath the log — replaying it against
	// the wrong base would publish rows that were never acknowledged
	// together, so reject the load.
	switch {
	case tailEpoch < cat.Epoch:
		tail = nil
	case tailEpoch > cat.Epoch:
		return fmt.Errorf("vas: snapshot tail %s: %w: tail epoch %d is newer than snapshot epoch %d",
			filepath.Join(dir, TailFile), snapshot.ErrCorrupt, tailEpoch, cat.Epoch)
	}
	frac := c.compactFrac
	mode := c.indexBackend
	tables := make([]*store.Table, 0, len(cat.Tables))
	byName := make(map[string]*store.Table, len(cat.Tables))
	for _, ts := range cat.Tables {
		t, err := store.TableFromSnapshot(ts)
		if err != nil {
			return fmt.Errorf("vas: snapshot %s: %w", filepath.Join(dir, SnapshotFile), err)
		}
		t.SetAutoCompact(frac)
		if err := t.SetIndexBackend(mode); err != nil {
			return err
		}
		// A forced backend rebuilds any restored index that does not
		// comply; under auto (the default) IndexOn's fast path keeps every
		// persisted index as-is, so restores stay rebuild-free.
		if mode != "" && mode != IndexBackendAuto {
			if err := t.IndexOn("x", "y"); err != nil {
				return fmt.Errorf("vas: snapshot %s: reindex %q under %q backend: %w",
					filepath.Join(dir, SnapshotFile), t.Name(), mode, err)
			}
		}
		tables = append(tables, t)
		byName[t.Name()] = t
	}
	// Validate the tail against the decoded tables before publishing
	// anything: a replay that cannot land (unknown table, wrong column
	// count) must fail the whole load, not half-apply it.
	tailRows := make(map[string]int64)
	for ri, rec := range tail {
		t, ok := byName[rec.Table]
		if !ok {
			return fmt.Errorf("vas: snapshot tail record %d targets unknown table %q", ri, rec.Table)
		}
		if rec.Delete {
			cols := make(map[string]bool, len(t.Columns()))
			for _, name := range t.Columns() {
				cols[name] = true
			}
			for _, p := range rec.Preds {
				if !cols[p.Col] {
					return fmt.Errorf("vas: snapshot tail record %d deletes on unknown column %q of table %q",
						ri, p.Col, rec.Table)
				}
			}
			continue
		}
		if len(rec.Cols) != len(t.Columns()) {
			return fmt.Errorf("vas: snapshot tail record %d has %d columns for %d-column table %q",
				ri, len(rec.Cols), len(t.Columns()), rec.Table)
		}
		tailRows[rec.Table] += int64(len(rec.Cols[0]))
	}
	if err := c.st.PublishCatalog(tables, cat.Samples); err != nil {
		return fmt.Errorf("vas: snapshot %s: %w", filepath.Join(dir, SnapshotFile), err)
	}
	// Replay the tail in order: AppendRows bins every batch into the
	// restored indexes' deltas, and DeleteWhere re-tombstones by
	// predicate — both cheap and incremental, and neither can fail after
	// the shape checks above. Interleaving matters: a delete only covers
	// the appends before it, exactly as it did in the original process.
	for _, rec := range tail {
		t := byName[rec.Table]
		if rec.Delete {
			preds := make([]store.Pred, len(rec.Preds))
			for i, p := range rec.Preds {
				preds[i] = store.Pred{Column: p.Col, Min: p.Min, Max: p.Max}
			}
			n, err := t.DeleteWhere(preds)
			if err != nil {
				return fmt.Errorf("vas: snapshot tail delete replay on %q: %w", rec.Table, err)
			}
			tailRows[rec.Table] += int64(n)
			continue
		}
		if err := t.AppendRows(rec.Cols...); err != nil {
			return fmt.Errorf("vas: snapshot tail replay into %q: %w", rec.Table, err)
		}
	}
	c.snapDir = dir
	c.tailRows = tailRows
	c.snapEpoch = cat.Epoch
	c.provMu.Lock()
	for _, p := range cat.Provenance {
		c.prov[p.Table] = p
	}
	c.provMu.Unlock()
	// Loaded tables replace whatever the HTTP layer may have cached.
	c.srvMu.Lock()
	if c.srv != nil {
		for _, t := range tables {
			c.srv.InvalidateTable(t.Name())
		}
	}
	c.srvMu.Unlock()
	return nil
}

// SnapshotFresh reports whether the catalog's current provenance for
// table — typically just restored by LoadSnapshot — matches what
// LoadTable(points) followed by BuildSamples(sizes, withDensity, opt)
// would record: same data fingerprint, same row count, same build
// options. A fresh snapshot can be served as-is; a stale one should be
// rebuilt and re-saved.
func (c *Catalog) SnapshotFresh(table string, points []Point, sizes []int, withDensity bool, opt Options) bool {
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.X
		ys[i] = p.Y
	}
	want := snapshot.Provenance{
		Table:      table,
		SourceHash: snapshot.HashColumns(xs, ys),
		Rows:       int64(len(points)),
		Build:      buildSpec(sizes, withDensity, opt),
	}
	c.provMu.Lock()
	got, ok := c.prov[table]
	c.provMu.Unlock()
	return ok && got == want
}

// RecordColdStart tells the catalog how it was populated ("snapshot"
// for a LoadSnapshot restore, "rebuild" for LoadTable+BuildSamples) and
// how long that took; /metrics exposes both so operators can see what a
// restart cost and whether the snapshot path was taken.
func (c *Catalog) RecordColdStart(source string, d time.Duration) {
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	c.coldSource, c.coldDur = source, d
	if c.srv != nil {
		c.srv.SetColdStart(source, d)
	}
}

// QueryResult is the answer to a visualization query.
type QueryResult struct {
	// Points are the tuples to plot.
	Points []Point
	// Counts carries density weights when the served sample has them.
	Counts []float64
	// SampleSize is the size of the served sample (0 for an exact scan).
	SampleSize int
	// PredictedTime is the latency-model estimate for this answer.
	PredictedTime time.Duration
	// Scan reports how the rows were selected (index probe, zone-map
	// pruning for filtered queries).
	Scan ScanStats
}

// Query answers a visualization request over table within the latency
// budget (0 means the 2s interactive limit), restricted to viewport (zero
// Rect = full extent).
func (c *Catalog) Query(table string, viewport Rect, budget time.Duration) (*QueryResult, error) {
	return c.QueryFiltered(table, viewport, nil, budget)
}

// QueryFiltered answers a visualization request restricted to viewport
// AND every filter predicate, pushed down into the same index probe the
// viewport uses (per-cell zone maps prune cells no matching row can
// occupy). Filter columns are resolved against the served sample table —
// "x", "y", and "density" for samples built by BuildSamples with
// density embedding.
func (c *Catalog) QueryFiltered(table string, viewport Rect, filters []Pred, budget time.Duration) (*QueryResult, error) {
	resp, err := c.planner.Plan(query.Request{
		Table: table, XCol: "x", YCol: "y",
		Viewport: viewport, Filters: filters, Budget: budget,
	})
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Points:        resp.Points,
		Counts:        resp.Values,
		SampleSize:    resp.Sample.Size,
		PredictedTime: resp.PredictedTime,
		Scan:          resp.Scan,
	}, nil
}

// QueryRects answers one visualization request over the union of
// several viewports — the multi-monitor / comparison-dashboard shape,
// where two or more zoomed regions of the same table render in one
// round trip. Each rectangle is probed separately against the served
// table and the row sets are unioned, so a point inside two overlapping
// rectangles is returned once. Filters apply to every rectangle. An
// empty rects slice means the full extent.
func (c *Catalog) QueryRects(table string, rects []Rect, filters []Pred, budget time.Duration) (*QueryResult, error) {
	resp, err := c.planner.Plan(query.Request{
		Table: table, XCol: "x", YCol: "y",
		Rects: rects, Filters: filters, Budget: budget,
	})
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Points:        resp.Points,
		Counts:        resp.Values,
		SampleSize:    resp.Sample.Size,
		PredictedTime: resp.PredictedTime,
		Scan:          resp.Scan,
	}, nil
}

// QueryExact bypasses samples and scans the base table.
func (c *Catalog) QueryExact(table string, viewport Rect) (*QueryResult, error) {
	resp, err := c.planner.Plan(query.Request{
		Table: table, XCol: "x", YCol: "y",
		Viewport: viewport, Exact: true,
	})
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Points:        resp.Points,
		PredictedTime: resp.PredictedTime,
		Scan:          resp.Scan,
	}, nil
}

// NearestResult is the answer to a k-nearest-neighbour query.
type NearestResult struct {
	// Neighbors are the k nearest live rows, nearest first (ties broken
	// by row id); fewer when the table holds fewer matching rows.
	Neighbors []Neighbor
	// Scan reports how the search ran — best-first tree descent for
	// R-tree-backed tables, brute-force sweep otherwise.
	Scan ScanStats
}

// Nearest answers the k nearest live rows of the base table to (x, y)
// by Euclidean distance, restricted to rows matching every filter.
// Always exact — a kNN answer is k specific rows, so no sample or
// latency-budget tradeoff applies. R-tree-backed tables (see
// SetIndexBackend) answer with a best-first branch-and-bound descent;
// grid-backed and unindexed tables fall back to a brute-force sweep.
func (c *Catalog) Nearest(table string, x, y float64, k int, filters []Pred) (*NearestResult, error) {
	resp, err := c.planner.Nearest(query.NearestRequest{
		Table: table, XCol: "x", YCol: "y",
		X: x, Y: y, K: k, Filters: filters,
	})
	if err != nil {
		return nil, err
	}
	return &NearestResult{Neighbors: resp.Neighbors, Scan: resp.Scan}, nil
}
