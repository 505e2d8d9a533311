package vas_test

// End-to-end tests of the HTTP serving layer (ISSUE 1 acceptance): load a
// table, build VAS samples, then exercise the full network path with an
// httptest server — budget-bound queries, PNG tiles, cache hits, health
// and metrics — and hammer the catalog from many goroutines while samples
// are being registered (run with -race).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/server"

	vas "repro"
)

// serveQuery answers GET /v1/query?table=<table>&<params> in process,
// through the catalog's HTTP handler.
func serveQuery(c *vas.Catalog, table, params string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?table="+table+"&"+params, nil))
	return rec
}

// tryQuery is serveQuery decoded: an error unless the status is 200.
func tryQuery(c *vas.Catalog, table, params string) (server.QueryResponse, error) {
	var res server.QueryResponse
	rec := serveQuery(c, table, params)
	if rec.Code != http.StatusOK {
		return res, fmt.Errorf("query %s&%s: status %d: %s", table, params, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		return res, fmt.Errorf("query %s&%s: bad JSON %q: %v", table, params, rec.Body, err)
	}
	return res, nil
}

// query is tryQuery for an answer the test expects.
func query(t testing.TB, c *vas.Catalog, table, params string) server.QueryResponse {
	t.Helper()
	res, err := tryQuery(c, table, params)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// points converts an answer's [x, y] pairs back to points; the JSON
// round trip of a finite float64 is exact.
func points(res server.QueryResponse) []vas.Point {
	pts := make([]vas.Point, len(res.Points))
	for i, p := range res.Points {
		pts[i] = vas.Point{X: p[0], Y: p[1]}
	}
	return pts
}

// num formats v for a query string: exact, and with the exponent's "+"
// escaped.
func num(v float64) string { return url.QueryEscape(strconv.FormatFloat(v, 'g', -1, 64)) }

// viewport is r's query parameters; the zero Rect is the full extent.
func viewport(r vas.Rect) string {
	if r == (vas.Rect{}) {
		return ""
	}
	return "minx=" + num(r.MinX) + "&miny=" + num(r.MinY) + "&maxx=" + num(r.MaxX) + "&maxy=" + num(r.MaxY)
}

// filter is p's filter parameter.
func filter(p vas.Pred) string {
	return "filter=" + url.QueryEscape(p.Column) + ":" + num(p.Min) + ":" + num(p.Max)
}

// newServedCatalog loads a small geolife-like table and builds two VAS
// samples, runs each setup on the catalog before its handler is built,
// and returns the catalog, its data, and a live httptest server.
func newServedCatalog(t *testing.T, setup ...func(*vas.Catalog)) (*vas.Catalog, *dataset.Dataset, *httptest.Server) {
	t.Helper()
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 4000, Seed: 7})
	cat := vas.NewCatalog()
	if err := cat.LoadTable("gps", d.Points); err != nil {
		t.Fatal(err)
	}
	if err := cat.BuildSamples("gps", d.Points, []int{50, 200}, true, vas.Options{Passes: 1}); err != nil {
		t.Fatal(err)
	}
	for _, f := range setup {
		f(cat)
	}
	ts := httptest.NewServer(cat.Handler())
	t.Cleanup(ts.Close)
	return cat, d, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp
}

func TestServeEndToEnd(t *testing.T) {
	_, _, ts := newServedCatalog(t)

	// Health.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Catalog listing shows the base table and both samples.
	var tables struct {
		Tables []struct {
			Name    string `json:"name"`
			Rows    int    `json:"rows"`
			Samples []struct {
				Table string `json:"table"`
				Size  int    `json:"size"`
			} `json:"samples"`
		} `json:"tables"`
	}
	getJSON(t, ts.URL+"/v1/tables", &tables)
	if len(tables.Tables) != 1 || tables.Tables[0].Name != "gps" || tables.Tables[0].Rows != 4000 {
		t.Fatalf("tables = %+v", tables)
	}
	if len(tables.Tables[0].Samples) != 2 {
		t.Fatalf("samples = %+v", tables.Tables[0].Samples)
	}

	// A budget-bound query returns points from a registered VAS sample.
	var q struct {
		Points     [][2]float64 `json:"points"`
		Sample     string       `json:"sample"`
		SampleSize int          `json:"sampleSize"`
	}
	r := getJSON(t, ts.URL+"/v1/query?table=gps&budget=1600ms", &q)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", r.StatusCode)
	}
	if q.SampleSize != 200 || !strings.HasPrefix(q.Sample, "gps_vas_") {
		t.Errorf("served %q size %d, want a 200-point VAS sample", q.Sample, q.SampleSize)
	}
	if len(q.Points) == 0 || len(q.Points) > 200 {
		t.Errorf("query returned %d points", len(q.Points))
	}

	// Tile: first fetch renders (MISS) and is a valid PNG.
	tileURL := ts.URL + "/v1/tile/gps/1/0/0.png?budget=1600ms&size=128"
	resp, err = http.Get(tileURL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "image/png" {
		t.Fatalf("tile status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("first tile X-Cache = %q, want MISS", got)
	}
	img, err := png.Decode(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("tile is not a valid PNG: %v", err)
	}
	if img.Bounds().Dx() != 128 {
		t.Errorf("tile width = %d, want 128", img.Bounds().Dx())
	}

	// Second fetch is served from the cache: HIT header, hit counter up,
	// and no second render (miss counter unchanged).
	resp, err = http.Get(tileURL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("second tile X-Cache = %q, want HIT", got)
	}

	// Metrics expose the cache hit and request counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"vasserve_tile_cache_hits_total 1",
		"vasserve_tile_cache_misses_total 1",
		`vasserve_requests_total{route="tile"} 2`,
		`vasserve_requests_total{route="query"} 1`,
		"vasserve_request_latency_p50_seconds",
		// The base table and both samples carry (x, y) grid indexes, and
		// the tile render above probed one.
		"vasserve_store_indexed_tables 3",
		"vasserve_store_spatial_indexes 3",
		"vasserve_store_index_probes_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q in:\n%s", want, metrics)
		}
	}
}

// TestLoadTableReloadInvalidatesTiles locks down the reload path:
// re-loading a base table must drop its cached tiles (and cached data
// extent), so exact renders never serve pixels from the previous
// contents. Before the fix only BuildSamples invalidated.
func TestLoadTableReloadInvalidatesTiles(t *testing.T) {
	diag := make([]vas.Point, 200)
	anti := make([]vas.Point, 200)
	for i := range diag {
		f := float64(i)
		diag[i] = vas.Point{X: f, Y: f}       // main diagonal
		anti[i] = vas.Point{X: f, Y: 199 - f} // anti-diagonal: visibly different tile
	}
	cat := vas.NewCatalog()
	if err := cat.LoadTable("gps", diag); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cat.Handler())
	t.Cleanup(ts.Close)

	fetch := func() (string, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/tile/gps/0/0/0.png?exact=true")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tile status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Cache"), body
	}

	cache, before := fetch()
	if cache != "MISS" {
		t.Fatalf("first fetch X-Cache = %q, want MISS", cache)
	}
	if cache, _ = fetch(); cache != "HIT" {
		t.Fatalf("second fetch X-Cache = %q, want HIT", cache)
	}

	if err := cat.LoadTable("gps", anti); err != nil {
		t.Fatal(err)
	}
	cache, after := fetch()
	if cache != "MISS" {
		t.Errorf("post-reload fetch X-Cache = %q, want MISS (stale tile served)", cache)
	}
	if bytes.Equal(before, after) {
		t.Error("post-reload tile is pixel-identical to the pre-reload render")
	}
}

// TestServeConcurrentWithSampleRegistration hammers queries and tile
// fetches from many goroutines while new samples are being registered,
// locking down the store/planner/cache hardening. Run with -race.
func TestServeConcurrentWithSampleRegistration(t *testing.T) {
	cat, d, ts := newServedCatalog(t)
	client := ts.Client()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fetch := func(url string) {
		resp, err := client.Get(url)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", url, resp.StatusCode)
		}
	}
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
				fetch(fmt.Sprintf("%s/v1/query?table=gps&budget=1600ms", ts.URL))
				fetch(fmt.Sprintf("%s/v1/tile/gps/2/%d/%d.png?budget=1600ms&size=64", ts.URL, i%4, g%4))
			}
		}(g)
	}
	// Register two more sample sizes while traffic is in flight; each
	// registration invalidates the table's cached tiles.
	for _, k := range []int{100, 400} {
		if err := cat.BuildSamples("gps", d.Points, []int{k}, false, vas.Options{Passes: 1}); err != nil {
			t.Error(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// After the dust settles, the planner serves the largest new sample.
	res := query(t, cat, "gps", "budget=30s")
	if res.SampleSize != 400 {
		t.Errorf("largest sample after concurrent registration = %d, want 400", res.SampleSize)
	}
}
