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

// Pred is a conjunctive range predicate over a named column — the shape
// dashboards emit for attribute slicing (time window, magnitude band).
// A row matches when Min <= value <= Max; NaN bounds mean unbounded.
type Pred = store.Pred

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
}

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
		}, nil
	}
	ic := core.NewInterchange(core.Options{K: opt.K, Kernel: kern, Variant: variant})
	ran := core.Converge(ic, points, passes)
	return &Sample{
		Points:    ic.Sample(),
		IDs:       ic.SampleIDs(),
		Objective: ic.Objective(), // Converge recomputed it after the last pass
		Passes:    ran,
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
// pre-built samples of several sizes, and its Handler answers queries
// within a latency budget by picking the largest sample that fits.
type Catalog struct {
	st      *store.Store
	planner *query.Planner

	srvMu sync.Mutex
	srv   *server.Server
	// HTTP-layer knobs, applied when the server is created on the first
	// Handler call (see SetRequestTimeout / SetSlowThreshold /
	// SetAdmissionLimits).
	reqTimeout    time.Duration
	slowThreshold time.Duration
	maxInFlight   int
	queueDepth    int
	queueTimeout  time.Duration

	// provMu guards prov, the per-base-table provenance the snapshot
	// subsystem persists (and staleness checks compare against).
	provMu sync.Mutex
	prov   map[string]snapshot.Provenance
	// coldStart remembers how this catalog was populated (snapshot load
	// vs full rebuild) and how long that took, for /metrics.
	coldSource string
	coldDur    time.Duration

	// snapMu serializes everything that must agree about what is on
	// disk versus in memory: writes (store write + tail-log record are
	// one critical section, see apply), full saves (catalog capture +
	// save + tail truncation), and loads. snapDir is the snapshot
	// directory the catalog is bound to ("" = no persistence); tailRows
	// counts, per table, the rows living only in the tail log since the
	// last full save (the re-save threshold is per table — a big table's
	// backlog must not trigger a full-catalog save on a small table's
	// behalf).
	snapMu   sync.Mutex
	snapDir  string
	tailRows map[string]int64
	resaving atomic.Bool
	resaveWG sync.WaitGroup
	// snapErr marks the snapshot persistence as degraded: a tail-log
	// write or background re-save failed. While set, writes no longer
	// touch the log (a failed write followed by successful ones would
	// turn a tolerated torn-final-record into mid-file corruption) and
	// keep returning the error; a successful SaveSnapshot — retried in
	// the background with backoff — folds everything and clears it.
	snapErr    error
	lastResave time.Time
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
}

// DefaultCompactFraction is the auto-compaction threshold applied to
// base tables the catalog loads: a background compaction fires when a
// table's appended tail exceeds this fraction of its indexed rows.
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
// appended tail exceeds frac of its indexed rows compacts in the
// background.
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

// LoadTable registers a base table named name with columns x and y, or
// replaces its contents when the table already exists. The (x, y) pair is
// spatially indexed at load time, so viewport queries and tile renders
// over the base table are index probes. The new contents are a new
// generation of the table, and tiles are keyed by the generation they
// were drawn from, so no exact tile of the previous contents is served
// after the load. Samples built from the old contents keep serving until
// refreshed — call BuildSamples again after a reload; it replaces the
// previous sample tables in place.
func (c *Catalog) LoadTable(name string, points []Point) error {
	t, err := c.st.Table(name)
	if err != nil {
		if t, err = c.st.CreateTable(name, "x", "y"); err != nil {
			return err
		}
	}
	cols := columns(points)
	if err := t.BulkLoad(cols...); err != nil {
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
		SourceHash: snapshot.HashColumns(cols...),
		Rows:       int64(len(points)),
	}
	c.provMu.Unlock()
	return nil
}

// columns splits points into a base table's x and y columns.
func columns(points []Point) [][]float64 {
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i], ys[i] = p.X, p.Y
	}
	return [][]float64{xs, ys}
}

// BuildSamples builds and registers VAS samples of each size for the
// named table, optionally with density embedding. This is the offline
// preprocessing step of §II-D. A sample replaces the one of its name.
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
	return nil
}

// Append adds a batch of points to a base table while it serves: the
// rows become visible at once as the table's appended tail, which scans
// filter through the batch kernels (crossing the compaction threshold
// folds them into a fresh immutable generation in the background), the
// batch is recorded in the snapshot tail log
// when the catalog is bound to a snapshot directory (a restart replays
// it — no rebuild). Exact tiles are drawn anew; sampled tiles stay
// cached unless the rows move the table's extent.
//
// A non-nil error with rows already visible (tail-log write failure)
// means durability is degraded, not that the append was rejected: the
// rows serve until the process exits, and the catalog keeps retrying a
// full re-save in the background to restore persistence. Samples are
// not refreshed by Append: they keep representing the distribution they
// were built from until the next BuildSamples. Exact queries and
// tail-aware probes see appended rows immediately.
func (c *Catalog) Append(table string, pts []Point) error {
	_, err := c.apply(mutation{Table: table, Cols: columns(pts)})
	return err
}

// DeleteWhere tombstones every base-table row matching all predicates
// (conjunctive range semantics; an empty list deletes every row) and
// returns how many rows were newly deleted. Deleted rows vanish from
// every subsequent query and tile atomically; the physical space is
// reclaimed by the table's next background compaction. The predicates
// are recorded in the snapshot tail log when the catalog is bound to a
// snapshot directory, so a restart replays them in order with the
// appends around them. Samples are not refreshed by a delete: like
// Append, the pre-built samples keep representing the distribution they
// were built from until the next BuildSamples.
func (c *Catalog) DeleteWhere(table string, preds []Pred) (int, error) {
	tp := make([]snapshot.TailPred, len(preds))
	for i, p := range preds {
		tp[i] = snapshot.TailPred{Col: p.Column, Min: p.Min, Max: p.Max}
	}
	return c.apply(mutation{Table: table, Delete: true, Preds: tp})
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

// SetSlowThreshold sets the minimum total duration a request trace must
// reach to enter the slow-query log at /debug/slow: zero (the default)
// means 250ms, negative means keep every trace. Must be called before
// the first Handler call.
func (c *Catalog) SetSlowThreshold(d time.Duration) {
	c.srvMu.Lock()
	c.slowThreshold = d
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
// serves concurrently with every catalog write; tiles are keyed by the
// generation they were drawn from, so none is served stale.
func (c *Catalog) Handler() http.Handler {
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	if c.srv == nil {
		c.srv = server.New(c.st, c.planner, server.Config{
			// Appends and deletes route through the catalog's one write
			// path, which also logs them to the snapshot tail (durable
			// across a restart).
			AppendHook: func(table string, cols [][]float64) (int, error) {
				return c.apply(mutation{Table: table, Cols: cols})
			},
			DeleteHook: c.DeleteWhere,
			// Per-table tail-log durability for the
			// vasserve_tail_log_degraded gauge.
			TailStatus:    c.tailStatus,
			SlowThreshold: c.slowThreshold,
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

// SnapshotFresh reports whether the catalog's current provenance for
// table — typically just restored by LoadSnapshot — matches what
// LoadTable(points) followed by BuildSamples(sizes, withDensity, opt)
// would record: same data fingerprint, same row count, same build
// options. A fresh snapshot can be served as-is; a stale one should be
// rebuilt and re-saved.
func (c *Catalog) SnapshotFresh(table string, points []Point, sizes []int, withDensity bool, opt Options) bool {
	want := snapshot.Provenance{
		Table:      table,
		SourceHash: snapshot.HashColumns(columns(points)...),
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
