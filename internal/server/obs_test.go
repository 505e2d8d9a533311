package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// scanHeaders are the per-request scan-statistics headers /v1/tile
// mirrors from the /v1/query JSON scan fields.
var scanHeaders = []string{
	"X-Vas-Scan-Index-Probe",
	"X-Vas-Scan-Cells-Touched",
	"X-Vas-Scan-Cells-Pruned",
	"X-Vas-Scan-Cells-Bulk",
	"X-Vas-Scan-Rows-Examined",
	"X-Vas-Scan-Zones-Skipped",
	"X-Vas-Served-Rows",
}

func TestTileScanHeaders(t *testing.T) {
	s := newTestServer(t)
	const url = "/v1/tile/base/0/0/0.png?budget=150us&size=64&filter=x:100:199"
	miss := get(t, s, url)
	if miss.Code != http.StatusOK {
		t.Fatalf("tile miss = %d: %s", miss.Code, miss.Body.String())
	}
	if got := miss.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first fetch X-Cache = %q, want MISS", got)
	}
	for _, h := range scanHeaders {
		if miss.Header().Get(h) == "" {
			t.Errorf("tile miss lacks %s header", h)
		}
	}
	if got := miss.Header().Get("X-Vas-Scan-Index-Probe"); got != "true" {
		t.Errorf("X-Vas-Scan-Index-Probe = %q, want true (samples are indexed)", got)
	}
	// A cache hit replays the sidecar of the render that produced the
	// pixels: identical stats, no re-scan.
	hit := get(t, s, url)
	if got := hit.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("second fetch X-Cache = %q, want HIT", got)
	}
	for _, h := range scanHeaders {
		if m, g := miss.Header().Get(h), hit.Header().Get(h); g != m {
			t.Errorf("%s: hit %q != miss %q", h, g, m)
		}
	}
}

// TestUnknownPathCountedAsOther pins the catch-all route: a request
// for a path nobody registered still flows through the middleware and
// lands under route="other" — the mux's default NotFound never answers
// uncounted.
func TestUnknownPathCountedAsOther(t *testing.T) {
	s := newTestServer(t)
	rec := get(t, s, "/definitely/not/registered")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", rec.Code)
	}
	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		`vasserve_requests_total{route="other"} 1`,
		`vasserve_request_latency_seconds_count{route="other"} 1`,
		`vasserve_request_errors_total{route="other",class="4xx"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestQueryScanFieldsMatchTileHeaders(t *testing.T) {
	s := newTestServer(t)
	rec := get(t, s, "/v1/query?table=base&budget=150us&filter=x:100:199&minx=0&miny=0&maxx=399&maxy=399")
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Scan.IndexProbe {
		t.Error("filtered query did not report an index probe")
	}
	if out.Scan.RowsExamined == 0 {
		t.Error("filtered query reported zero rows examined")
	}
}

func TestSlowLogEndpoint(t *testing.T) {
	s := newTestServerWithConfig(t, Config{SlowThreshold: -1}) // keep every trace
	get(t, s, "/v1/query?table=base&budget=150us&filter=x:100:199&minx=0&miny=0&maxx=399&maxy=399")
	get(t, s, "/v1/tile/base/0/0/0.png?budget=150us&size=64")
	rec := get(t, s, "/debug/slow")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/slow = %d", rec.Code)
	}
	var report obs.SlowReport
	if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Traces) < 2 {
		t.Fatalf("slow log kept %d traces, want >= 2", len(report.Traces))
	}
	var query, tile *obs.TraceReport
	for i := range report.Traces {
		switch report.Traces[i].Route {
		case "query":
			query = &report.Traces[i]
		case "tile":
			tile = &report.Traces[i]
		}
	}
	if query == nil || tile == nil {
		t.Fatalf("missing query or tile trace in %+v", report.Traces)
	}
	for _, tr := range []*obs.TraceReport{query, tile} {
		if tr.Table != "base" {
			t.Errorf("%s trace table = %q, want base", tr.Route, tr.Table)
		}
		if tr.Scan == nil {
			t.Errorf("%s trace has no scan stats", tr.Route)
		}
		if len(tr.Stages) == 0 {
			t.Errorf("%s trace has no stage timings", tr.Route)
		}
		if tr.StagesMillis <= 0 || tr.StagesMillis > tr.TotalMillis {
			t.Errorf("%s trace stage sum %.3fms outside (0, total=%.3fms]",
				tr.Route, tr.StagesMillis, tr.TotalMillis)
		}
	}
	// The tile render recorded its cache interaction as its own stage.
	found := false
	for _, st := range tile.Stages {
		if st.Stage == "cache" {
			found = true
		}
	}
	if !found {
		t.Errorf("tile trace lacks a cache stage: %+v", tile.Stages)
	}
	if len(report.Tables) == 0 || report.Tables[0].Table != "base" {
		t.Errorf("per-table summary missing: %+v", report.Tables)
	}
}

// newTestServerWithConfig is newTestServer with a caller-chosen Config.
func newTestServerWithConfig(t *testing.T, cfg Config) *Server {
	t.Helper()
	base := newTestServer(t)
	return newServer(base.st, cfg)
}

// TestMetricsStrictUnderConcurrentTraffic scrapes /metrics while query,
// tile, and append traffic is in flight and runs every scrape through
// the strict exposition checker: unique series, valid label quoting,
// monotone cumulative buckets ending in +Inf, and _count agreeing with
// the +Inf bucket. Run with -race this also exercises the
// snapshot-once histogram read path against concurrent observations.
func TestMetricsStrictUnderConcurrentTraffic(t *testing.T) {
	s := newTestServerWithConfig(t, Config{SlowThreshold: -1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					get(t, s, "/v1/query?table=base&budget=150us")
				case 1:
					get(t, s, fmt.Sprintf("/v1/tile/base/0/0/0.png?budget=150us&size=64&filter=x:%d:399", i%200))
				case 2:
					postJSON(t, s, "/v1/append/base", fmt.Sprintf(`{"points": [[%d, %d]]}`, i, g))
				}
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		rec := get(t, s, "/metrics")
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics = %d", rec.Code)
		}
		checkExposition(t, rec.Body.String())
	}
	close(stop)
	wg.Wait()
	// A final quiescent scrape must expose the full per-route histogram
	// surface.
	body := get(t, s, "/metrics").Body.String()
	for _, route := range []string{"query", "tile", "append"} {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			want := fmt.Sprintf("vasserve_request_latency_seconds%s{route=%q", suffix, route)
			if !strings.Contains(body, want) {
				t.Errorf("metrics missing %s series for route %s", suffix, route)
			}
		}
	}
	if !strings.Contains(body, `vasserve_stage_duration_seconds_count{stage="probe"}`) {
		t.Error("metrics missing per-stage duration histogram")
	}
	checkExposition(t, body)
}
