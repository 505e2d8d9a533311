package vas_test

import (
	"bytes"
	"image/png"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"

	vas "repro"
)

func skewedData(n int, seed int64) []vas.Point {
	return dataset.GeolifeLike(dataset.GeolifeOptions{N: n, Seed: seed}).Points
}

func TestBuildBasics(t *testing.T) {
	data := skewedData(5000, 1)
	s, err := vas.Build(data, vas.Options{K: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 200 || len(s.IDs) != 200 {
		t.Fatalf("sample size %d/%d ids", len(s.Points), len(s.IDs))
	}
	for i, id := range s.IDs {
		if data[id] != s.Points[i] {
			t.Fatalf("ids not parallel to points at %d", i)
		}
	}
	if s.Objective <= 0 {
		t.Errorf("objective = %v", s.Objective)
	}
}

// TestBuildObjectivePinned: Sample.Objective is Converge's recomputed
// objective after the last pass, bit for bit. The values were recorded
// when Build recomputed it a second time.
func TestBuildObjectivePinned(t *testing.T) {
	data := skewedData(5000, 1)
	for _, c := range []struct {
		opt    vas.Options
		passes int
		bits   uint64
	}{
		{vas.Options{K: 200}, 2, 0x40710816b666eacc},
		{vas.Options{K: 200, Variant: "es+loc", Passes: 3}, 3, 0x407106493176a4c7},
		{vas.Options{K: 100, Variant: "no-es", Passes: 1}, 1, 0x4041fa7e584818dd},
		{vas.Options{K: 200, Kernel: "tricube"}, 2, 0x4075c29be3b97da4},
		{vas.Options{K: 200, Kernel: "epanechnikov", Variant: "es+loc"}, 2, 0x407e71793d4e3828},
	} {
		s, err := vas.Build(data, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if s.Passes != c.passes || math.Float64bits(s.Objective) != c.bits {
			t.Errorf("%+v: passes %d objective %.17g, want passes %d objective %.17g",
				c.opt, s.Passes, s.Objective, c.passes, math.Float64frombits(c.bits))
		}
	}
}

func TestBuildValidation(t *testing.T) {
	data := skewedData(100, 2)
	if _, err := vas.Build(data, vas.Options{K: 0}); err == nil {
		t.Error("K=0: want error")
	}
	if _, err := vas.Build(nil, vas.Options{K: 5}); err == nil {
		t.Error("empty data: want error")
	}
	if _, err := vas.Build(data, vas.Options{K: 5, Kernel: "cosine"}); err == nil {
		t.Error("bad kernel: want error")
	}
	if _, err := vas.Build(data, vas.Options{K: 5, Variant: "quantum"}); err == nil {
		t.Error("bad variant: want error")
	}
}

func TestBuildKGreaterThanN(t *testing.T) {
	data := skewedData(50, 3)
	s, err := vas.Build(data, vas.Options{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 50 {
		t.Errorf("K>N should return everything, got %d", len(s.Points))
	}
}

func TestBuildVariantsProduceComparableQuality(t *testing.T) {
	data := skewedData(3000, 4)
	var objs []float64
	for _, variant := range []string{"es", "no-es", "es+loc"} {
		s, err := vas.Build(data, vas.Options{K: 50, Variant: variant, Passes: 1})
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		objs = append(objs, s.Objective)
	}
	// es and no-es implement the same rule exactly.
	if diff := objs[0] - objs[1]; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("es %v vs no-es %v", objs[0], objs[1])
	}
	// es+loc may truncate kernel tails but must stay close.
	if objs[2] > objs[0]*1.05+1e-9 {
		t.Errorf("es+loc objective %v far above es %v", objs[2], objs[0])
	}
}

func TestBuildBeatsBaselinesOnLoss(t *testing.T) {
	data := skewedData(30000, 5)
	const k = 300
	s, err := vas.Build(data, vas.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	uni, _, err := vas.Uniform(data, k, 5)
	if err != nil {
		t.Fatal(err)
	}
	vasLoss, err := vas.EvaluateLoss(data, s.Points, 0, 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	uniLoss, err := vas.EvaluateLoss(data, uni, 0, 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	if vasLoss.LogLossRatio >= uniLoss.LogLossRatio {
		t.Errorf("VAS ratio %v not below uniform %v", vasLoss.LogLossRatio, uniLoss.LogLossRatio)
	}
}

func TestUniformAndStratified(t *testing.T) {
	data := skewedData(2000, 7)
	uni, ids, err := vas.Uniform(data, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(uni) != 100 || len(ids) != 100 {
		t.Fatalf("uniform returned %d/%d", len(uni), len(ids))
	}
	strat, sids, err := vas.Stratified(data, 100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(strat) != 100 || len(sids) != 100 {
		t.Fatalf("stratified returned %d/%d", len(strat), len(sids))
	}
	if _, _, err := vas.Uniform(nil, 10, 1); err == nil {
		t.Error("uniform empty data: want error")
	}
	if _, _, err := vas.Stratified(data, 0, 10, 1); err == nil {
		t.Error("stratified k=0: want error")
	}
}

func TestDensityEmbed(t *testing.T) {
	data := skewedData(8000, 8)
	s, err := vas.Build(data, vas.Options{K: 80})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.DensityEmbed(data)
	if err != nil {
		t.Fatal(err)
	}
	if ws.TotalCount() != int64(len(data)) {
		t.Errorf("counts sum %d, want %d", ws.TotalCount(), len(data))
	}
}

func TestRenderPNGRoundTrips(t *testing.T) {
	data := skewedData(2000, 9)
	var buf bytes.Buffer
	if err := vas.RenderPNG(&buf, data, vas.Rect{}, 120, 90); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 120 || img.Bounds().Dy() != 90 {
		t.Errorf("bounds %v", img.Bounds())
	}
	// Weighted render.
	s, err := vas.Build(data, vas.Options{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.DensityEmbed(data)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := vas.RenderWeightedPNG(&buf, ws, vas.Rect{}, 80, 80); err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	// Map plot.
	values := make([]float64, len(data))
	rng := rand.New(rand.NewSource(10))
	for i := range values {
		values[i] = rng.Float64() * 100
	}
	buf.Reset()
	if err := vas.RenderMapPNG(&buf, data, values, vas.Rect{}, 80, 80); err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	// Error paths.
	if err := vas.RenderPNG(&buf, nil, vas.Rect{}, 10, 10); err == nil {
		t.Error("empty render: want error")
	}
	if err := vas.RenderWeightedPNG(&buf, nil, vas.Rect{}, 10, 10); err == nil {
		t.Error("nil weighted render: want error")
	}
}

func TestZoomFacade(t *testing.T) {
	bounds := vas.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	vp, err := vas.Zoom(bounds, vas.Point{X: 50, Y: 50}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if vp.Width() != 10 || vp.Height() != 10 {
		t.Errorf("viewport %v", vp)
	}
	if _, err := vas.Zoom(bounds, vas.Point{X: 50, Y: 50}, 0.1); err == nil {
		t.Error("zoom < 1: want error")
	}
}

func TestCatalogEndToEnd(t *testing.T) {
	data := skewedData(20000, 11)
	cat := vas.NewCatalog()
	if err := cat.LoadTable("gps", data); err != nil {
		t.Fatal(err)
	}
	if err := cat.BuildSamples("gps", data, []int{50, 500}, true, vas.Options{Passes: 1}); err != nil {
		t.Fatal(err)
	}
	// Interactive query serves the largest fitting sample.
	res := query(t, cat, "gps", "")
	if res.SampleSize != 500 {
		t.Errorf("served K=%d, want 500", res.SampleSize)
	}
	if res.PredictedMillis > 2000 {
		t.Errorf("predicted time %gms exceeds interactive limit", res.PredictedMillis)
	}
	if res.Counts == nil {
		t.Error("density counts missing from a with-density catalog")
	}
	// Tight budget falls back to the small sample.
	res = query(t, cat, "gps", "budget=1600ms")
	if res.SampleSize != 500 && res.SampleSize != 50 {
		t.Errorf("unexpected sample size %d", res.SampleSize)
	}
	// Viewport-restricted query returns only in-view points.
	bounds := boundsOf(data)
	zoomVP, err := vas.Zoom(bounds, bounds.Center(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res = query(t, cat, "gps", viewport(zoomVP))
	for _, p := range points(res) {
		if !zoomVP.Contains(p) {
			t.Fatalf("point %v outside viewport", p)
		}
	}
	// Exact scan returns the base table.
	exact := query(t, cat, "gps", "exact=true")
	if len(exact.Points) != len(data) {
		t.Errorf("exact scan returned %d of %d", len(exact.Points), len(data))
	}
	// Loading an existing table replaces its contents (a reload, not an
	// error): the next exact scan sees the new generation.
	if err := cat.LoadTable("gps", data[:100]); err != nil {
		t.Fatalf("reload: %v", err)
	}
	exact = query(t, cat, "gps", "exact=true")
	if len(exact.Points) != 100 {
		t.Errorf("exact scan after reload returned %d points, want 100", len(exact.Points))
	}
	// Re-running BuildSamples after the reload replaces the stale samples
	// in place (same names, no duplicate catalog entries) so budget-bound
	// queries serve the new data. K=500 over 100 points degenerates to
	// all 100 points — seeing size 100 proves the old 500-point sample
	// was replaced, not kept alongside.
	if err := cat.BuildSamples("gps", data[:100], []int{50, 500}, true, vas.Options{Passes: 1}); err != nil {
		t.Fatalf("rebuild samples after reload: %v", err)
	}
	res = query(t, cat, "gps", "")
	if res.SampleSize != 100 {
		t.Errorf("post-rebuild query served K=%d, want the refreshed 100-point sample", res.SampleSize)
	}
}

// TestCatalogQueryFiltered: attribute filters ride down into the sample
// scan through the catalog's handler, compose with the viewport, and report
// how the probe was answered.
func TestCatalogQueryFiltered(t *testing.T) {
	data := skewedData(20000, 13)
	cat := vas.NewCatalog()
	if err := cat.LoadTable("gps", data); err != nil {
		t.Fatal(err)
	}
	if err := cat.BuildSamples("gps", data, []int{500}, true, vas.Options{Passes: 1}); err != nil {
		t.Fatal(err)
	}
	bounds := boundsOf(data)
	cx := bounds.Center().X
	unfiltered := query(t, cat, "gps", "")
	res := query(t, cat, "gps", filter(vas.Pred{Column: "x", Min: bounds.MinX, Max: cx}))
	if len(res.Points) == 0 || len(res.Points) >= len(unfiltered.Points) {
		t.Fatalf("x-half filter kept %d of %d points", len(res.Points), len(unfiltered.Points))
	}
	for _, p := range points(res) {
		if p.X > cx {
			t.Errorf("point %v escapes the x filter", p)
		}
	}
	if len(res.Counts) != len(res.Points) {
		t.Errorf("density counts desynced: %d counts for %d points", len(res.Counts), len(res.Points))
	}
	if !res.Scan.IndexProbe {
		t.Error("catalog samples are indexed; the filtered query should probe")
	}
	// Filter + viewport compose; density filters hit the §V counts.
	vp, err := vas.Zoom(bounds, bounds.Center(), 2)
	if err != nil {
		t.Fatal(err)
	}
	res = query(t, cat, "gps", viewport(vp)+"&"+filter(vas.Pred{Column: "density", Min: 2, Max: 1e18}))
	for i, p := range points(res) {
		if !vp.Contains(p) {
			t.Fatalf("point %v outside viewport", p)
		}
		if res.Counts[i] < 2 {
			t.Errorf("density filter leaked count %g", res.Counts[i])
		}
	}
}

func boundsOf(pts []vas.Point) vas.Rect {
	b := vas.Rect{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	for _, p := range pts {
		if p.X < b.MinX {
			b.MinX = p.X
		}
		if p.X > b.MaxX {
			b.MaxX = p.X
		}
		if p.Y < b.MinY {
			b.MinY = p.Y
		}
		if p.Y > b.MaxY {
			b.MaxY = p.Y
		}
	}
	return b
}

func TestEvaluateLossValidation(t *testing.T) {
	data := skewedData(500, 12)
	if _, err := vas.EvaluateLoss(nil, data[:10], 0, 100, 1); err == nil {
		t.Error("empty data: want error")
	}
	if _, err := vas.EvaluateLoss(data, nil, 0, 100, 1); err == nil {
		t.Error("empty sample: want error")
	}
	rep, err := vas.EvaluateLoss(data, data, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogLossRatio < -1e-9 || rep.LogLossRatio > 1e-9 {
		t.Errorf("self ratio = %v, want 0", rep.LogLossRatio)
	}
}
