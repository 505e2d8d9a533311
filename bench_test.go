package vas_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (§VI), plus the ablation benches (internal/experiments'
// ablation-* ids). Each experiment benchmark regenerates its artifact end to end at a
// reduced scale through internal/experiments — the same code cmd/vasexp
// runs at medium/full scale — so `go test -bench=.` exercises every
// reproduction path. Micro-benchmarks for the hot substrates (Interchange
// variants, density pass, loss evaluation) follow.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/loss"
	"repro/internal/proximity"
	"repro/internal/sampling"
	core "repro/internal/vas"

	vas "repro"
)

// benchScale is deliberately small: the full artifacts are regenerated by
// cmd/vasexp; the benches track the cost of each reproduction path.
func benchScale() experiments.Scale {
	return experiments.Scale{
		DataN:       30_000,
		SampleSizes: []int{100, 300},
		Trials:      30,
		Probes:      100,
		Seed:        42,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Coverage regenerates the Fig. 1 overview/zoom coverage
// comparison (stratified vs VAS).
func BenchmarkFig1Coverage(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2VizTime regenerates Fig. 2 (latency vs dataset size).
func BenchmarkFig2VizTime(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig4VizTime regenerates Fig. 4 (latency vs sample size).
func BenchmarkFig4VizTime(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkTable1Regression regenerates Table I(a).
func BenchmarkTable1Regression(b *testing.B) { benchExperiment(b, "table1a") }

// BenchmarkTable1Density regenerates Table I(b).
func BenchmarkTable1Density(b *testing.B) { benchExperiment(b, "table1b") }

// BenchmarkTable1Clustering regenerates Table I(c).
func BenchmarkTable1Clustering(b *testing.B) { benchExperiment(b, "table1c") }

// BenchmarkFig7Correlation regenerates Fig. 7 (loss vs user success).
func BenchmarkFig7Correlation(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8ErrorTime regenerates Fig. 8 (error/time tradeoff).
func BenchmarkFig8ErrorTime(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkTable2ExactVsApprox regenerates Table II (exact B&B vs
// Interchange vs random on tiny N).
func BenchmarkTable2ExactVsApprox(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig9Convergence regenerates Fig. 9 (objective vs time).
func BenchmarkFig9Convergence(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10Optimizations regenerates Fig. 10 (NoES/ES/ES+Loc).
func BenchmarkFig10Optimizations(b *testing.B) { benchExperiment(b, "fig10") }

// ---- micro-benchmarks: Interchange variants (the Fig. 10 mechanism) ----

func benchData(n int) ([]geom.Point, proximity.Func) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: n, Seed: 7})
	k, err := proximity.FromData(proximity.Gaussian, d.Points)
	if err != nil {
		panic(err)
	}
	return d.Points, k
}

func benchInterchange(b *testing.B, variant core.Variant, k int) {
	pts, kern := benchData(20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic := core.NewInterchange(core.Options{K: k, Kernel: kern, Variant: variant})
		for j, p := range pts {
			ic.Add(p, j)
		}
	}
	b.ReportMetric(float64(len(pts)), "points/op")
}

func BenchmarkInterchangeNoESK100(b *testing.B) { benchInterchange(b, core.NoES, 100) }
func BenchmarkInterchangeESK100(b *testing.B)   { benchInterchange(b, core.ES, 100) }
func BenchmarkInterchangeESLocK100(b *testing.B) {
	benchInterchange(b, core.ESLoc, 100)
}
func BenchmarkInterchangeESK1000(b *testing.B) { benchInterchange(b, core.ES, 1000) }
func BenchmarkInterchangeESLocK1000(b *testing.B) {
	benchInterchange(b, core.ESLoc, 1000)
}

// BenchmarkAblationKernels compares the admissible κ̃ families (§III
// admits any convex decreasing proximity function): the compact kernels
// skip the exp and allow exact pruning.
func BenchmarkAblationKernels(b *testing.B) {
	pts, _ := benchData(20_000)
	diag := geom.MaxPairwiseDist(pts)
	for _, kind := range []proximity.Kind{proximity.Gaussian, proximity.Epanechnikov, proximity.Tricube} {
		b.Run(kind.String(), func(b *testing.B) {
			kern := proximity.New(kind, diag/proximity.DefaultBandwidthDivisor)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ic := core.NewInterchange(core.Options{K: 200, Kernel: kern})
				for j, p := range pts {
					ic.Add(p, j)
				}
			}
		})
	}
}

// ---- micro-benchmarks: baselines ----

func BenchmarkReservoirSampling(b *testing.B) {
	pts, _ := benchData(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sampling.NewReservoir(1000, int64(i))
		for j, p := range pts {
			r.Add(p, j)
		}
	}
}

func BenchmarkStratifiedSampling(b *testing.B) {
	pts, _ := benchData(100_000)
	bounds := geom.Bounds(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sampling.NewStratifiedSquare(1000, bounds, 10, int64(i))
		for j, p := range pts {
			s.Add(p, j)
		}
		s.Sample()
	}
}

// ---- micro-benchmarks: substrates ----

func BenchmarkDensityPass(b *testing.B) {
	data, _ := benchData(50_000)
	s, err := vas.Build(data, vas.Options{K: 500, Passes: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DensityPass(s.Points, s.IDs, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLossEvaluation(b *testing.B) {
	data, kern := benchData(30_000)
	ev, err := loss.NewEvaluator(data, loss.Options{Kernel: kern, Probes: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sample, _, err := vas.Uniform(data, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(sample); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- serving benchmarks: the HTTP layer over the catalog ----

// servedCatalog builds a catalog with prebuilt samples and returns its
// HTTP handler for in-process benchmarking (no network, no encoder fluff:
// httptest request -> handler -> recorder).
func servedCatalog(b *testing.B, n int, sizes []int) http.Handler {
	b.Helper()
	data, _ := benchData(n)
	cat := vas.NewCatalog()
	if err := cat.LoadTable("gps", data); err != nil {
		b.Fatal(err)
	}
	if err := cat.BuildSamples("gps", data, sizes, false, vas.Options{Passes: 1}); err != nil {
		b.Fatal(err)
	}
	return cat.Handler()
}

// BenchmarkServerQueryParallel measures budget-bound /v1/query throughput
// with all CPUs issuing requests — the serving hot path of the Fig. 3
// architecture under parallel load.
func BenchmarkServerQueryParallel(b *testing.B) {
	h := servedCatalog(b, 50_000, []int{100, 1000})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("GET", "/v1/query?table=gps&budget=1600ms", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	})
}

// BenchmarkTileCacheHit measures the tile fast path: every request after
// the first is served from the sharded LRU without re-rendering.
func BenchmarkTileCacheHit(b *testing.B) {
	h := servedCatalog(b, 50_000, []int{100, 1000})
	warm := httptest.NewRequest("GET", "/v1/tile/gps/1/0/0.png?budget=1600ms", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("GET", "/v1/tile/gps/1/0/0.png?budget=1600ms", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "HIT" {
				b.Fatalf("status %d cache %q", rec.Code, rec.Header().Get("X-Cache"))
			}
		}
	})
}

// BenchmarkTileCacheMiss measures the tile slow path: every request
// addresses a fresh tile, paying plan + scan + rasterize + PNG encode.
func BenchmarkTileCacheMiss(b *testing.B) {
	h := servedCatalog(b, 50_000, []int{100, 1000})
	const z = 10 // 2^20 distinct addresses, far more than b.N
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := i%(1<<z), (i/(1<<z))%(1<<z)
		url := fmt.Sprintf("/v1/tile/gps/%d/%d/%d.png?budget=1600ms&size=64", z, x, y)
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
