package query

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/store"
	"repro/internal/viztime"
)

// fixedModel makes latency exactly n microseconds per tuple with zero
// startup, so tests can pick budgets that admit exact tuple counts.
type fixedModel struct{}

func (fixedModel) Name() string { return "fixed" }
func (fixedModel) Time(n int) time.Duration {
	return time.Duration(n) * time.Microsecond
}

func setup(t *testing.T) (*store.Store, *Planner) {
	t.Helper()
	st := store.New()
	base, err := st.CreateTable("base", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	// 100 base points on a diagonal.
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i)
	}
	if err := base.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	// Samples of sizes 10 and 50.
	for _, size := range []int{10, 50} {
		pts := make([]geom.Point, size)
		for i := range pts {
			pts[i] = geom.Pt(float64(i*100/size), float64(i*100/size))
		}
		name := names(size)
		if err := LoadSample(st, name, store.SampleMeta{
			Source: "base", Method: "vas", XCol: "x", YCol: "y",
		}, pts, nil); err != nil {
			t.Fatal(err)
		}
	}
	return st, NewPlanner(st, fixedModel{})
}

func names(size int) string {
	if size == 10 {
		return "base_vas_10"
	}
	return "base_vas_50"
}

func TestPlannerPicksLargestFittingSample(t *testing.T) {
	_, pl := setup(t)
	// Budget admits 60 tuples -> the 50-point sample.
	resp, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Budget: 60 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sample.Size != 50 {
		t.Errorf("served sample size %d, want 50", resp.Sample.Size)
	}
	// Budget admits 20 tuples -> the 10-point sample.
	resp, err = pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Budget: 20 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sample.Size != 10 {
		t.Errorf("served sample size %d, want 10", resp.Sample.Size)
	}
}

func TestPlannerBudgetTooSmall(t *testing.T) {
	_, pl := setup(t)
	_, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Budget: 5 * time.Microsecond})
	if !errors.Is(err, ErrNoSampleFits) {
		t.Errorf("err = %v, want ErrNoSampleFits", err)
	}
}

func TestPlannerViewportFilter(t *testing.T) {
	_, pl := setup(t)
	vp := geom.Rect{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30}
	resp, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Viewport: vp, Budget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range resp.Points {
		if !vp.Contains(p) {
			t.Fatalf("point %v outside viewport", p)
		}
	}
	if len(resp.Points) == 0 {
		t.Error("viewport scan returned nothing")
	}
}

func TestPlannerZeroViewportIsFullExtent(t *testing.T) {
	_, pl := setup(t)
	// Both the zero Rect and an explicitly empty Rect mean "no viewport
	// restriction": every sample row comes back.
	for _, vp := range []geom.Rect{{}, {MinX: 5, MinY: 5, MaxX: 4, MaxY: 4}} {
		resp, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Viewport: vp, Budget: 60 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Points) != resp.Sample.Size {
			t.Errorf("viewport %v: %d points, want full sample of %d", vp, len(resp.Points), resp.Sample.Size)
		}
	}
}

func TestPlannerTinyBudgets(t *testing.T) {
	_, pl := setup(t)
	// Budgets below the smallest sample (10 points at 1µs/tuple) must
	// fail with ErrNoSampleFits, down to and including zero... except
	// zero, which means "interactive default". Use 1ns for effectively
	// zero time.
	for _, budget := range []time.Duration{time.Nanosecond, 5 * time.Microsecond, 9 * time.Microsecond} {
		_, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Budget: budget})
		if !errors.Is(err, ErrNoSampleFits) {
			t.Errorf("budget %v: err = %v, want ErrNoSampleFits", budget, err)
		}
	}
	// Exactly the smallest sample's cost fits.
	resp, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Budget: 10 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sample.Size != 10 {
		t.Errorf("exact-fit budget served size %d, want 10", resp.Sample.Size)
	}
	// The exact-scan fallback still answers when no sample fits.
	exact, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Budget: time.Nanosecond, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.ExactScan || len(exact.Points) != 100 {
		t.Errorf("exact fallback: exact=%v n=%d", exact.ExactScan, len(exact.Points))
	}
}

func TestChoose(t *testing.T) {
	_, pl := setup(t)
	meta, err := pl.Choose(Request{Table: "base", XCol: "x", YCol: "y", Budget: 60 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Size != 50 {
		t.Errorf("Choose size = %d, want 50", meta.Size)
	}
	if _, err := pl.Choose(Request{Table: "base", XCol: "x", YCol: "y", Budget: 5 * time.Microsecond}); !errors.Is(err, ErrNoSampleFits) {
		t.Errorf("tiny budget Choose err = %v, want ErrNoSampleFits", err)
	}
	if _, err := pl.Choose(Request{XCol: "x", YCol: "y"}); err == nil {
		t.Error("missing table: want error")
	}
}

func TestPlannerExactScan(t *testing.T) {
	_, pl := setup(t)
	resp, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.ExactScan || len(resp.Points) != 100 {
		t.Errorf("exact scan: exact=%v n=%d", resp.ExactScan, len(resp.Points))
	}
}

func TestPlannerDefaultBudgetIsInteractive(t *testing.T) {
	st := store.New()
	base, _ := st.CreateTable("base", "x", "y")
	base.BulkLoad([]float64{1}, []float64{1})
	pts := []geom.Point{geom.Pt(1, 1)}
	LoadSample(st, "s", store.SampleMeta{Source: "base", Method: "vas", XCol: "x", YCol: "y"}, pts, nil)
	pl := NewPlanner(st, viztime.Tableau())
	resp, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PredictedTime > viztime.InteractiveLimit {
		t.Errorf("default budget exceeded the interactive limit: %v", resp.PredictedTime)
	}
}

func TestPlannerValidation(t *testing.T) {
	_, pl := setup(t)
	if _, err := pl.PlanCtx(context.Background(), Request{XCol: "x", YCol: "y"}); err == nil {
		t.Error("missing table: want error")
	}
	if _, err := pl.PlanCtx(context.Background(), Request{Table: "nope", XCol: "x", YCol: "y", Exact: true}); err == nil {
		t.Error("unknown table: want error")
	}
	if _, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "zz", YCol: "y", Exact: true}); err == nil {
		t.Error("unknown column: want error")
	}
}

func TestPlannerNoSamplesRegistered(t *testing.T) {
	st := store.New()
	base, _ := st.CreateTable("lonely", "x", "y")
	base.BulkLoad([]float64{1}, []float64{2})
	pl := NewPlanner(st, fixedModel{})
	// An existing table with no samples is "nothing can serve this"
	// (ErrNoSampleFits); an unknown table is a lookup failure
	// (store.ErrNotFound). The HTTP layer maps these to 422 vs 404.
	if _, err := pl.PlanCtx(context.Background(), Request{Table: "lonely", XCol: "x", YCol: "y"}); !errors.Is(err, ErrNoSampleFits) {
		t.Errorf("no samples: err = %v, want ErrNoSampleFits", err)
	}
	if _, err := pl.PlanCtx(context.Background(), Request{Table: "ghost", XCol: "x", YCol: "y"}); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("unknown table: err = %v, want store.ErrNotFound", err)
	}
}

// TestZeroRectViewportConvention is the regression test documenting the
// viewport convention shared by query and the vas façade: the zero
// geom.Rect — a degenerate point at the origin, the natural "unset"
// spelling for callers — means "full extent", NOT "only rows exactly at
// the origin". The store itself takes rectangles literally; the
// translation happens in viewportRows, and is exercised here against a
// table that does contain a row at the origin, so a literal reading
// would return exactly one point and fail.
func TestZeroRectViewportConvention(t *testing.T) {
	st := store.New()
	base, _ := st.CreateTable("base", "x", "y")
	if err := base.BulkLoad([]float64{0, 1, 2}, []float64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 2)}
	if err := LoadSample(st, "s", store.SampleMeta{
		Source: "base", Method: "vas", XCol: "x", YCol: "y",
	}, pts, nil); err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(st, fixedModel{})
	for _, exact := range []bool{false, true} {
		resp, err := pl.PlanCtx(context.Background(), Request{
			Table: "base", XCol: "x", YCol: "y",
			Viewport: geom.Rect{}, Budget: time.Second, Exact: exact,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Points) != 3 {
			t.Errorf("exact=%v: zero-Rect viewport returned %d points, want all 3", exact, len(resp.Points))
		}
	}
	// The store agrees: its zero-Rect convention is the same "no
	// restriction" fast path, so the two layers can never diverge on
	// what an unset viewport means (they used to: the store once read
	// the zero Rect as a literal point query at the origin).
	base, _ = st.Table("base")
	rows, _, err := base.View().ScanRects(context.Background(), "x", "y", []geom.Rect{{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if start, end, ok := rows.AsRange(); !ok || start != 0 || end != 3 {
		t.Errorf("store-level zero Rect = range[%d,%d) ok=%v, want dense [0,3)", start, end, ok)
	}
}

// TestPlanWithFilters: filter predicates are pushed into the sample
// scan alongside the viewport and reported in the pruning stats, for
// sampled and exact plans alike.
func TestPlanWithFilters(t *testing.T) {
	_, pl := setup(t)
	// The 50-point sample lies on the diagonal x == y in [0, 100); keep
	// x in [40, 60) via a filter, no viewport.
	resp, err := pl.PlanCtx(context.Background(), Request{
		Table: "base", XCol: "x", YCol: "y", Budget: 60 * time.Microsecond,
		Filters: []store.Pred{{Column: "x", Min: 40, Max: 59}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) == 0 || len(resp.Points) >= 50 {
		t.Fatalf("filtered plan returned %d of 50 sample points", len(resp.Points))
	}
	for _, p := range resp.Points {
		if p.X < 40 || p.X > 59 {
			t.Errorf("point %v escapes the filter band", p)
		}
	}
	if !resp.Scan.IndexProbe {
		t.Error("sample tables are indexed at publish; a filtered plan should probe")
	}

	// Viewport AND filter compose conjunctively.
	resp, err = pl.PlanCtx(context.Background(), Request{
		Table: "base", XCol: "x", YCol: "y", Budget: 60 * time.Microsecond,
		Viewport: geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 50},
		Filters:  []store.Pred{{Column: "y", Min: 30, Max: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range resp.Points {
		if p.Y < 30 || p.Y > 50 {
			t.Errorf("point %v escapes viewport ∩ filter", p)
		}
	}

	// Exact plans push the same filters into the base-table scan.
	resp, err = pl.PlanCtx(context.Background(), Request{
		Table: "base", XCol: "x", YCol: "y", Exact: true,
		Filters: []store.Pred{{Column: "x", Min: 10, Max: 19}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 10 {
		t.Errorf("exact filtered plan returned %d points, want 10", len(resp.Points))
	}

	// A filter on a column the served sample lacks is a lookup error.
	if _, err := pl.PlanCtx(context.Background(), Request{
		Table: "base", XCol: "x", YCol: "y", Budget: 60 * time.Microsecond,
		Filters: []store.Pred{{Column: "nope", Min: 0, Max: 1}},
	}); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("unknown filter column: err = %v, want ErrNotFound", err)
	}
}

// TestViewportRowsFullExtentAllocatesNothing pins the zero-allocation
// fast path: a full-extent request resolves to the store.All sentinel
// without materializing any row ids.
func TestViewportRowsFullExtentAllocatesNothing(t *testing.T) {
	st, pl := setup(t)
	base, err := st.Table("base")
	if err != nil {
		t.Fatal(err)
	}
	v := base.View()
	rows, _, err := pl.viewportRows(context.Background(), v, "x", "y", geom.Rect{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pts, err := v.Points("x", "y", rows); err != nil || len(pts) != v.LiveRows() {
		t.Fatalf("full extent resolved to %d of %d rows (err %v), want store.All", len(pts), v.LiveRows(), err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := pl.viewportRows(context.Background(), v, "x", "y", geom.Rect{}, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("full-extent viewportRows allocated %.0f objects per run, want 0", allocs)
	}
}

// TestPlanPropagatesDensityGatherError covers the former silent
// degradation: a sample registered with HasDensity whose density column
// is missing must fail the plan, not quietly serve unweighted points.
func TestPlanPropagatesDensityGatherError(t *testing.T) {
	st := store.New()
	base, _ := st.CreateTable("base", "x", "y")
	if err := base.BulkLoad([]float64{0, 1}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	// A sample table claiming density but carrying only (x, y).
	bad, _ := store.NewTable("bad", "x", "y")
	if err := bad.BulkLoad([]float64{0, 1}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.PublishSample(bad, store.SampleMeta{
		Table: "bad", Source: "base", Method: "vas",
		XCol: "x", YCol: "y", Size: 2, HasDensity: true,
	}); err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(st, fixedModel{})
	_, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Budget: time.Second})
	if err == nil {
		t.Fatal("broken density column: want error, got silent unweighted output")
	}
	if !errors.Is(err, store.ErrNotFound) {
		t.Errorf("err = %v, want wrapped store.ErrNotFound", err)
	}
}

// TestLoadSampleReplacesExisting: re-publishing a sample under the same
// name replaces the old table and its catalog entry, so BuildSamples can
// refresh samples after a base-table reload instead of failing on the
// taken name or duplicating metadata.
func TestLoadSampleReplacesExisting(t *testing.T) {
	st := store.New()
	base, _ := st.CreateTable("base", "x", "y")
	if err := base.BulkLoad([]float64{0, 10}, []float64{0, 10}); err != nil {
		t.Fatal(err)
	}
	meta := store.SampleMeta{Source: "base", Method: "vas", XCol: "x", YCol: "y"}
	if err := LoadSample(st, "s", meta, []geom.Point{geom.Pt(1, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	// Replace with a bigger sample that also changes schema (adds density).
	pts := []geom.Point{geom.Pt(2, 2), geom.Pt(3, 3)}
	if err := LoadSample(st, "s", meta, pts, []int64{5, 7}); err != nil {
		t.Fatalf("re-publish: %v", err)
	}
	metas := st.SamplesOf("base")
	if len(metas) != 1 {
		t.Fatalf("catalog has %d entries for the sample, want 1: %+v", len(metas), metas)
	}
	if metas[0].Size != 2 || !metas[0].HasDensity {
		t.Errorf("replaced meta = %+v, want size 2 with density", metas[0])
	}
	pl := NewPlanner(st, fixedModel{})
	resp, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Budget: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 2 || resp.Values[0] != 5 {
		t.Errorf("served points %v values %v, want the replacement sample", resp.Points, resp.Values)
	}
}

func TestLoadSampleWithDensity(t *testing.T) {
	st := store.New()
	base, _ := st.CreateTable("base", "x", "y")
	base.BulkLoad([]float64{0, 10}, []float64{0, 10})
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 10)}
	counts := []int64{7, 3}
	if err := LoadSample(st, "ws", store.SampleMeta{
		Source: "base", Method: "vas", XCol: "x", YCol: "y",
	}, pts, counts); err != nil {
		t.Fatal(err)
	}
	metas := st.SamplesOf("base")
	if len(metas) != 1 || !metas[0].HasDensity || metas[0].Size != 2 {
		t.Fatalf("meta = %+v", metas)
	}
	pl := NewPlanner(st, fixedModel{})
	resp, err := pl.PlanCtx(context.Background(), Request{Table: "base", XCol: "x", YCol: "y", Budget: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != 2 || resp.Values[0] != 7 {
		t.Errorf("density values = %v", resp.Values)
	}
	// Mismatched counts are rejected.
	if err := LoadSample(st, "bad", store.SampleMeta{Source: "base", XCol: "x", YCol: "y"}, pts, []int64{1}); err == nil {
		t.Error("count length mismatch: want error")
	}
}
