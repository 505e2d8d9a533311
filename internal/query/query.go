// Package query is the data-reduction layer between the visualization tool
// and the store — the role ScalaR plays in the paper's related work and
// the deployment model of §II-D: a visualization request arrives with a
// latency budget; the planner converts the budget into a tuple count using
// the latency model, picks the largest registered sample that fits, scans
// it with the request's viewport predicates, and returns the points to
// render.
package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/viztime"
)

// ErrNoSampleFits is returned when even the smallest registered sample
// exceeds the latency budget.
var ErrNoSampleFits = errors.New("query: no sample fits the latency budget")

// Request is one visualization query from the tool.
type Request struct {
	// Table is the base table the user is visualizing.
	Table string
	// XCol, YCol are the plotted columns.
	XCol, YCol string
	// Viewport restricts the plot to a zoom region; the zero Rect (empty)
	// means the full extent.
	Viewport geom.Rect
	// Rects, when non-empty, restricts the plot to the UNION of several
	// zoom regions — the multi-viewport shape of comparison dashboards.
	// Each rectangle is probed separately and the row sets are unioned,
	// so a row inside two overlapping rectangles is returned once.
	// Mutually exclusive with Viewport: a request setting both is
	// rejected rather than guessing an intersection-vs-union intent.
	Rects []geom.Rect
	// Filters are extra conjunctive range predicates — time windows,
	// magnitude bands, categories — pushed down into the same index
	// probe that answers the viewport, where per-cell zone maps prune
	// cells no matching row can live in. Columns are resolved against
	// the served table (the chosen sample, or the base table for Exact),
	// so a filter column must exist there.
	Filters []store.Pred
	// Budget is the latency the tool is willing to spend; zero means the
	// interactive limit (2s).
	Budget time.Duration
	// Exact forces a full-table scan, bypassing samples (the "100%
	// sample" end of the §II-B tradeoff).
	Exact bool
}

// Response is the planner's answer.
type Response struct {
	// Points are the tuples to render.
	Points []geom.Point
	// Values carries the sample's density counts when the chosen sample
	// has density embedding, else nil.
	Values []float64
	// Sample is the metadata of the sample served, or the zero value for
	// an exact scan.
	Sample store.SampleMeta
	// ExactScan is true when the base table was scanned.
	ExactScan bool
	// PredictedTime is the latency-model estimate for rendering Points.
	PredictedTime time.Duration
	// PlanTime is how long planning+scan took inside the engine.
	PlanTime time.Duration
	// Scan reports how the row selection was answered — index probe vs
	// fallback, zone-map pruning for filtered queries, and how many
	// rows came out of delta buckets (appended but not yet compacted).
	Scan store.ScanStats
	// ServedRows is the live row count of the generation the answer was
	// scanned from (the chosen sample, or the base table for an exact
	// scan) — under live ingest, how current the served data is. It
	// comes from the same view as the scan, so it is exact: tombstoned
	// rows are excluded whether or not compaction has reclaimed them,
	// and rows appended after the scan's view are not counted.
	ServedRows int
}

// Planner answers visualization requests against a store.
type Planner struct {
	st    *store.Store
	model viztime.Model
}

// NewPlanner returns a planner using the latency model to convert budgets
// to tuple counts.
func NewPlanner(st *store.Store, model viztime.Model) *Planner {
	return &Planner{st: st, model: model}
}

// Plan answers one request.
func (pl *Planner) Plan(req Request) (*Response, error) {
	return pl.PlanCtx(context.Background(), req)
}

// PlanCtx is Plan with stage timing: when ctx carries an obs.Trace,
// sample selection is recorded as the plan span, row projection as the
// gather span, and the store scan contributes probe/residual spans.
// The trace also learns the base table and, for sampled answers, which
// sample was served.
func (pl *Planner) PlanCtx(ctx context.Context, req Request) (*Response, error) {
	tr := obs.FromContext(ctx)
	start := time.Now()
	if req.Table == "" || req.XCol == "" || req.YCol == "" {
		return nil, errors.New("query: Table, XCol and YCol are required")
	}
	if len(req.Rects) > 0 && req.Viewport != (geom.Rect{}) {
		return nil, errors.New("query: Viewport and Rects are mutually exclusive")
	}
	tr.SetTable(req.Table)

	// The plan span resolves the served table: the base table for an
	// exact plan, else the sample Choose picks. Choose is the single home
	// of budget defaulting and sample selection, so /v1/query and the
	// tile cache keying (which calls Choose directly) can never disagree
	// about which sample a budget resolves to. A sample replacement
	// (LoadSample drops and recreates the table) can race between
	// selection and lookup; re-resolving against the updated catalog
	// absorbs it instead of surfacing a spurious not-found for a table
	// that exists.
	sp := tr.StartSpan(obs.StagePlan)
	var (
		chosen store.SampleMeta
		t      *store.Table
		err    error
	)
	if req.Exact {
		t, err = pl.st.Table(req.Table)
	} else {
		for attempt := 0; ; attempt++ {
			if chosen, err = pl.Choose(req); err != nil {
				break
			}
			t, err = pl.st.Table(chosen.Table)
			if err == nil || attempt == 2 || !errors.Is(err, store.ErrNotFound) {
				break
			}
		}
		if err == nil {
			tr.Annotate("sample", chosen.Table)
		}
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	// One view serves the scan, the point projection, the density
	// gather and the served-row count: they all describe one
	// generation of the table, whatever is published meanwhile. A
	// chosen sample is on the request's column pair (chooseSample).
	v := t.View()
	rows, scanStats, err := pl.viewportRows(ctx, v, req.XCol, req.YCol, req.Viewport, req.Rects, req.Filters)
	if err != nil {
		return nil, err
	}
	sp = tr.StartSpan(obs.StageGather)
	pts, err := v.Points(req.XCol, req.YCol, rows)
	sp.End()
	if err != nil {
		return nil, err
	}
	resp := &Response{
		Points:        pts,
		Sample:        chosen,
		ExactScan:     req.Exact,
		PredictedTime: pl.model.Time(len(pts)),
		PlanTime:      time.Since(start),
		Scan:          scanStats,
		ServedRows:    v.LiveRows(),
	}
	if chosen.HasDensity {
		// A sample registered with HasDensity whose density column cannot
		// be gathered is broken data, not a cue to silently degrade to
		// unweighted output.
		sp = tr.StartSpan(obs.StageGather)
		vals, err := v.Gather("density", rows)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("query: sample %q density gather: %w", chosen.Table, err)
		}
		resp.Values = vals
	}
	return resp, nil
}

// NearestRequest is one k-nearest-neighbors request.
type NearestRequest struct {
	// Table is the base table to answer from. kNN is always exact — the
	// answer is k rows, so there is no latency/size tradeoff to plan,
	// and the nearest neighbor in a sample is generally not the nearest
	// neighbor in the data.
	Table string
	// XCol, YCol name the coordinate pair.
	XCol, YCol string
	// X, Y is the query point; K how many neighbors to return.
	X, Y float64
	K    int
	// Filters restrict candidates exactly like query filters: a
	// neighbor must satisfy every range predicate.
	Filters []store.Pred
}

// NearestResponse is the kNN answer.
type NearestResponse struct {
	// Neighbors is ascending by (distance, row id); fewer than K when
	// fewer rows match.
	Neighbors []store.Neighbor
	// PlanTime is the total in-engine time.
	PlanTime time.Duration
	// Scan reports how the candidate set was narrowed (tree descent
	// leaves touched/pruned vs brute-force rows examined).
	Scan store.ScanStats
	// ServedRows is the live row count of the generation searched.
	ServedRows int
}

// Nearest answers one kNN request.
func (pl *Planner) Nearest(req NearestRequest) (*NearestResponse, error) {
	return pl.NearestCtx(context.Background(), req)
}

// NearestCtx is Nearest with stage timing: the index descent (or
// brute-force sweep) is recorded as the probe span on any trace ctx
// carries.
func (pl *Planner) NearestCtx(ctx context.Context, req NearestRequest) (*NearestResponse, error) {
	tr := obs.FromContext(ctx)
	start := time.Now()
	if req.Table == "" || req.XCol == "" || req.YCol == "" {
		return nil, errors.New("query: Table, XCol and YCol are required")
	}
	tr.SetTable(req.Table)
	base, err := pl.st.Table(req.Table)
	if err != nil {
		return nil, err
	}
	v := base.View()
	ns, scanStats, err := v.Nearest(ctx, req.XCol, req.YCol, req.X, req.Y, req.K, req.Filters)
	if err != nil {
		return nil, err
	}
	return &NearestResponse{
		Neighbors:  ns,
		PlanTime:   time.Since(start),
		Scan:       scanStats,
		ServedRows: v.LiveRows(),
	}, nil
}

// Choose resolves the sample the planner would serve for req without
// scanning it. The tile server uses this to build cache keys: a cache hit
// must not pay for a scan, so sample selection is separated from data
// access.
func (pl *Planner) Choose(req Request) (store.SampleMeta, error) {
	if req.Table == "" || req.XCol == "" || req.YCol == "" {
		return store.SampleMeta{}, errors.New("query: Table, XCol and YCol are required")
	}
	budget := req.Budget
	if budget <= 0 {
		budget = viztime.InteractiveLimit
	}
	return pl.chooseSample(req, viztime.TuplesWithin(pl.model, budget))
}

// chooseSample picks the largest sample of the request's column pair whose
// size fits the tuple budget. Samples are registered ascending by size.
func (pl *Planner) chooseSample(req Request, maxTuples int) (store.SampleMeta, error) {
	metas := pl.st.SamplesOf(req.Table)
	if len(metas) == 0 {
		// Distinguish "no such table" (a lookup error, store.ErrNotFound)
		// from "table exists but nothing can serve it" (ErrNoSampleFits),
		// so the HTTP layer maps them to 404 vs 422.
		if _, err := pl.st.Table(req.Table); err != nil {
			return store.SampleMeta{}, err
		}
		return store.SampleMeta{}, fmt.Errorf("%w: table %q has no registered samples", ErrNoSampleFits, req.Table)
	}
	var best store.SampleMeta
	found := false
	for _, m := range metas {
		if m.XCol != req.XCol || m.YCol != req.YCol {
			continue
		}
		if m.Size <= maxTuples {
			best = m
			found = true
		}
	}
	if !found {
		return store.SampleMeta{}, fmt.Errorf("%w: budget admits %d tuples", ErrNoSampleFits, maxTuples)
	}
	return best, nil
}

// viewportRows scans v for a request's viewport spelling: Rects as a
// union, an unset Viewport (the zero value, or any empty rectangle) as
// the full extent, else the one Viewport. Filters ride down into the
// same probe, where zone maps prune cells no matching row lives in.
func (pl *Planner) viewportRows(ctx context.Context, v store.View, xCol, yCol string, vp geom.Rect, rects []geom.Rect, filters []store.Pred) (store.RowSet, store.ScanStats, error) {
	if len(rects) == 0 && vp != (geom.Rect{}) && !vp.IsEmpty() {
		rects = []geom.Rect{vp}
	}
	// The full extent with no filters is the store.All sentinel:
	// projections walk the columns directly and no row ids are ever
	// materialized (the zero-allocation fast path).
	if len(rects) == 0 && len(filters) == 0 {
		return store.All, store.ScanStats{}, nil
	}
	return v.ScanRects(ctx, xCol, yCol, rects, filters)
}

// LoadSample materializes a sample as a store table named name with
// columns (x, y[, density]) and registers its lineage. It is the bridge
// the offline builder (cmd/vasgen, the vas façade) uses to publish samples
// into the serving store. The table is fully built — loaded and indexed
// — before it is published, and publishing atomically replaces any
// previous sample of the same name together with its catalog entry, so
// a rebuild after a base-table reload refreshes in place and queries
// racing the replacement always find a complete catalog.
func LoadSample(st *store.Store, name string, meta store.SampleMeta, pts []geom.Point, density []int64) error {
	cols := []string{"x", "y"}
	if density != nil {
		if len(density) != len(pts) {
			return fmt.Errorf("query: %d density counts for %d points", len(density), len(pts))
		}
		cols = append(cols, "density")
	}
	t, err := store.NewTable(name, cols...)
	if err != nil {
		return err
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	loadCols := [][]float64{xs, ys}
	if density != nil {
		ds := make([]float64, len(density))
		for i, d := range density {
			ds[i] = float64(d)
		}
		loadCols = append(loadCols, ds)
	}
	if err := t.BulkLoad(loadCols...); err != nil {
		return err
	}
	// Publish-time indexing: every sample table answers viewport queries
	// as index probes from its first request.
	if err := t.IndexOn("x", "y"); err != nil {
		return err
	}
	meta.Table = name
	meta.Size = len(pts)
	meta.HasDensity = density != nil
	return st.PublishSample(t, meta)
}
