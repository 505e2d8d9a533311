package server

import (
	"bytes"
	"encoding/json"
	"image/png"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/store"
)

// fixedModel makes latency exactly n microseconds per tuple with zero
// startup, so tests can pick budgets that admit exact tuple counts.
type fixedModel struct{}

func (fixedModel) Name() string             { return "fixed" }
func (fixedModel) Time(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// newTestServer builds a store with one 400-point base table on a diagonal
// plus samples of sizes 20 and 100.
func newTestServer(t *testing.T) *Server {
	t.Helper()
	st := store.New()
	base, err := st.CreateTable("base", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 400)
	ys := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i)
	}
	if err := base.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{20, 100} {
		pts := make([]geom.Point, size)
		for i := range pts {
			pts[i] = geom.Pt(float64(i*400/size), float64(i*400/size))
		}
		name := "base_vas_" + map[int]string{20: "20", 100: "100"}[size]
		if err := query.LoadSample(st, name, store.SampleMeta{
			Source: "base", Method: "vas", XCol: "x", YCol: "y",
		}, pts, nil); err != nil {
			t.Fatal(err)
		}
	}
	return newServer(st, Config{})
}

// newServer is New with the fixed latency model and, for each write
// hook cfg leaves nil, one that writes the store table, as the catalog's
// write path does.
func newServer(st *store.Store, cfg Config) *Server {
	if cfg.AppendHook == nil {
		cfg.AppendHook = func(table string, cols [][]float64) (int, error) {
			t, err := st.Table(table)
			if err != nil {
				return 0, err
			}
			if err := t.AppendRows(cols...); err != nil {
				return 0, err
			}
			return len(cols[0]), nil
		}
	}
	if cfg.DeleteHook == nil {
		cfg.DeleteHook = func(table string, preds []store.Pred) (int, error) {
			t, err := st.Table(table)
			if err != nil {
				return 0, err
			}
			return t.DeleteWhere(preds)
		}
	}
	return New(st, query.NewPlanner(st, fixedModel{}), cfg)
}

// sameAsFresh fails t unless s serves url with the bytes a server with
// an empty tile cache over the same store serves: no tile cached before
// a write may be served after it.
func sameAsFresh(t *testing.T, s *Server, url string) {
	t.Helper()
	got := get(t, s, url)
	want := get(t, newServer(s.st, Config{}), url)
	if got.Code != http.StatusOK || want.Code != http.StatusOK {
		t.Fatalf("GET %s = %d, fresh server %d", url, got.Code, want.Code)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("GET %s served a stale tile (X-Cache %s)", url, got.Header().Get("X-Cache"))
	}
}

func get(t *testing.T, s *Server, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

func TestTablesListing(t *testing.T) {
	s := newTestServer(t)
	rec := get(t, s, "/v1/tables")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var out struct {
		Tables []TableInfo `json:"tables"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 1 {
		t.Fatalf("tables = %+v, want exactly the base table", out.Tables)
	}
	ti := out.Tables[0]
	if ti.Name != "base" || ti.Rows != 400 || len(ti.Samples) != 2 {
		t.Errorf("table info = %+v", ti)
	}
	if ti.Bounds == nil || ti.Bounds.MaxX != 399 {
		t.Errorf("bounds = %+v", ti.Bounds)
	}
	// Sample tables are nested under their source, not listed as tables.
	if ti.Samples[0].Size != 20 || ti.Samples[1].Size != 100 {
		t.Errorf("samples = %+v", ti.Samples)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s := newTestServer(t)
	// Budget admits 150 tuples -> the 100-point sample.
	rec := get(t, s, "/v1/query?table=base&budget=150us")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.SampleSize != 100 || len(out.Points) != 100 || out.Exact {
		t.Errorf("query response = size %d, %d points, exact %v", out.SampleSize, len(out.Points), out.Exact)
	}
	// Viewport restricts the answer.
	rec = get(t, s, "/v1/query?table=base&budget=150us&minx=0&miny=0&maxx=100&maxy=100")
	if rec.Code != http.StatusOK {
		t.Fatalf("viewport status = %d, body %s", rec.Code, rec.Body)
	}
	out = QueryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) == 0 || len(out.Points) >= 100 {
		t.Errorf("viewport points = %d, want a strict subset", len(out.Points))
	}
	for _, p := range out.Points {
		if p[0] < 0 || p[0] > 100 {
			t.Fatalf("point %v outside viewport", p)
		}
	}
	// Exact scan returns every base row.
	rec = get(t, s, "/v1/query?table=base&exact=true")
	out = QueryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Exact || len(out.Points) != 400 {
		t.Errorf("exact = %v with %d points", out.Exact, len(out.Points))
	}
}

func TestQueryErrors(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/query", http.StatusBadRequest},                                // missing table
		{"/v1/query?table=base&budget=nope", http.StatusBadRequest},         // bad budget
		{"/v1/query?table=base&minx=1", http.StatusBadRequest},              // partial viewport
		{"/v1/query?table=base&budget=5us", http.StatusUnprocessableEntity}, // no sample fits
		{"/v1/query?table=ghost&exact=true", http.StatusNotFound},           // unknown table, exact path
		{"/v1/query?table=ghost", http.StatusNotFound},                      // unknown table, sampled path
	}
	for _, c := range cases {
		if rec := get(t, s, c.url); rec.Code != c.code {
			t.Errorf("GET %s = %d, want %d (body %s)", c.url, rec.Code, c.code, rec.Body)
		}
	}
}

func TestTileEndpointAndCache(t *testing.T) {
	s := newTestServer(t)
	rec := get(t, s, "/v1/tile/base/1/0/1.png?budget=150us&size=64")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/png" {
		t.Errorf("content type = %q", ct)
	}
	if h := rec.Header().Get("X-Cache"); h != "MISS" {
		t.Errorf("first fetch X-Cache = %q, want MISS", h)
	}
	img, err := png.Decode(rec.Body)
	if err != nil {
		t.Fatalf("invalid PNG: %v", err)
	}
	if img.Bounds().Dx() != 64 || img.Bounds().Dy() != 64 {
		t.Errorf("tile dims = %v, want 64x64", img.Bounds())
	}

	before := s.cache.Stats()
	rec = get(t, s, "/v1/tile/base/1/0/1.png?budget=150us&size=64")
	if h := rec.Header().Get("X-Cache"); h != "HIT" {
		t.Errorf("second fetch X-Cache = %q, want HIT", h)
	}
	after := s.cache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("cache stats before %+v after %+v: want one more hit, no more misses", before, after)
	}

	// A different budget resolves to a different sample -> distinct key.
	rec = get(t, s, "/v1/tile/base/1/0/1.png?budget=30us&size=64")
	if h := rec.Header().Get("X-Cache"); h != "MISS" {
		t.Errorf("different-sample fetch X-Cache = %q, want MISS", h)
	}
	if got := rec.Header().Get("X-Sample"); got != "base_vas_20" {
		t.Errorf("X-Sample = %q, want base_vas_20", got)
	}

	// Republishing the sample publishes a new generation of it: the next
	// fetch renders again.
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(float64(i*4), float64(i*4))
	}
	if err := query.LoadSample(s.st, "base_vas_100", store.SampleMeta{
		Source: "base", Method: "vas", XCol: "x", YCol: "y",
	}, pts, nil); err != nil {
		t.Fatal(err)
	}
	rec = get(t, s, "/v1/tile/base/1/0/1.png?budget=150us&size=64")
	if h := rec.Header().Get("X-Cache"); h != "MISS" {
		t.Errorf("post-republish fetch X-Cache = %q, want MISS", h)
	}
}

// TestQueryFilters: filter=col:lo:hi predicates are parsed, pushed into
// the scan, and reflected in the pruning stats of the JSON answer.
func TestQueryFilters(t *testing.T) {
	s := newTestServer(t)
	rec := get(t, s, "/v1/query?table=base&budget=150us&filter=x:100:199")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) == 0 || len(out.Points) >= 100 {
		t.Fatalf("filtered query returned %d of the 100 sample points", len(out.Points))
	}
	for _, p := range out.Points {
		if p[0] < 100 || p[0] > 199 {
			t.Errorf("point %v escapes filter x:100:199", p)
		}
	}
	if !out.Scan.IndexProbe {
		t.Error("scan stats should report an index probe")
	}

	// Open-ended bounds: empty lo/hi are unbounded.
	rec = get(t, s, "/v1/query?table=base&budget=150us&filter=x:300:")
	if rec.Code != http.StatusOK {
		t.Fatalf("open-ended filter status = %d, body %s", rec.Code, rec.Body)
	}
	out = QueryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range out.Points {
		if p[0] < 300 {
			t.Errorf("point %v escapes filter x:300:", p)
		}
	}

	// Multiple filters are conjunctive.
	rec = get(t, s, "/v1/query?table=base&budget=150us&filter=x:100:&filter=y::150")
	out = QueryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range out.Points {
		if p[0] < 100 || p[1] > 150 {
			t.Errorf("point %v escapes the conjunction", p)
		}
	}

	// Malformed filters are 400s. (Only the LAST two ":"-fields are
	// bounds, so "x:1:2:3" is a well-formed filter on column "x:1" —
	// an unknown column, covered below — not a syntax error.)
	for _, bad := range []string{"x:1", "x:a:2", ":1:2", "x:1:2:z"} {
		if rec := get(t, s, "/v1/query?table=base&filter="+bad); rec.Code != http.StatusBadRequest {
			t.Errorf("filter=%q status = %d, want 400", bad, rec.Code)
		}
	}
	// A filter on an unknown column is a 404 (store lookup error) —
	// including the colon-bearing column name "x:1".
	for _, ghost := range []string{"ghost:1:2", "x:1:2:3"} {
		if rec := get(t, s, "/v1/query?table=base&budget=150us&filter="+ghost); rec.Code != http.StatusNotFound {
			t.Errorf("filter=%q status = %d, want 404", ghost, rec.Code)
		}
	}
}

// TestTileFilterCacheKeys: filters are part of the tile cache identity —
// different filter sets never share pixels, equivalent spellings do.
func TestTileFilterCacheKeys(t *testing.T) {
	s := newTestServer(t)
	base := "/v1/tile/base/0/0/0.png?budget=150us&size=32"
	if rec := get(t, s, base+"&filter=x:0:200"); rec.Header().Get("X-Cache") != "MISS" {
		t.Error("first filtered fetch should MISS")
	}
	if rec := get(t, s, base+"&filter=x:0:200"); rec.Header().Get("X-Cache") != "HIT" {
		t.Error("same filter should HIT")
	}
	// An equivalent spelling (trailing zeros) canonicalizes to the same key.
	if rec := get(t, s, base+"&filter=x:0.0:200.00"); rec.Header().Get("X-Cache") != "HIT" {
		t.Error("equivalent filter spelling should HIT the same entry")
	}
	// -0 and 0 compare identically and must share a key too.
	if rec := get(t, s, base+"&filter=x:-0:200"); rec.Header().Get("X-Cache") != "HIT" {
		t.Error("-0 bound should canonicalize to the 0 entry")
	}
	// A NaN bound means unbounded, like an empty bound.
	if rec := get(t, s, base+"&filter=y::300"); rec.Header().Get("X-Cache") != "MISS" {
		t.Error("open-lo filter should be its own entry")
	}
	if rec := get(t, s, base+"&filter=y:NaN:300"); rec.Header().Get("X-Cache") != "HIT" {
		t.Error("NaN lo should canonicalize to the open-lo entry")
	}
	// A different filter, and the unfiltered tile, are distinct entries.
	if rec := get(t, s, base+"&filter=x:0:100"); rec.Header().Get("X-Cache") != "MISS" {
		t.Error("different filter should MISS")
	}
	rec := get(t, s, base)
	if rec.Header().Get("X-Cache") != "MISS" {
		t.Error("unfiltered tile should be its own entry")
	}
	unfiltered := rec.Body.Bytes()
	// The filtered tile really is different pixels.
	rec = get(t, s, base+"&filter=x:0:100")
	if bytes.Equal(unfiltered, rec.Body.Bytes()) {
		t.Error("filtered and unfiltered tiles rendered identical bytes")
	}
	// Filter order does not fragment the cache.
	if rec := get(t, s, base+"&filter=x:0:100&filter=y:0:300"); rec.Header().Get("X-Cache") != "MISS" {
		t.Error("two-filter tile should MISS first")
	}
	if rec := get(t, s, base+"&filter=y:0:300&filter=x:0:100"); rec.Header().Get("X-Cache") != "HIT" {
		t.Error("reordered filters should HIT the same entry")
	}
}

func TestTileErrors(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/tile/base/1/0/1", http.StatusBadRequest},            // no .png
		{"/v1/tile/base/1/0/zz.png", http.StatusBadRequest},       // bad y
		{"/v1/tile/base/1/5/0.png", http.StatusBadRequest},        // out of range
		{"/v1/tile/base/1/0/0.png?size=4", http.StatusBadRequest}, // size too small
		{"/v1/tile/ghost/1/0/0.png", http.StatusNotFound},         // unknown table
		{"/v1/tile/base/1/0/0.png?budget=5us", http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if rec := get(t, s, c.url); rec.Code != c.code {
			t.Errorf("GET %s = %d, want %d (body %s)", c.url, rec.Code, c.code, rec.Body)
		}
	}
}

func postJSON(t *testing.T, s *Server, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	s.ServeHTTP(rec, req)
	return rec
}

func TestAppendEndpoint(t *testing.T) {
	s := newTestServer(t)
	// Index the base table (as the catalog façade does at load time) so
	// appended rows land in its tail and the ingest gauges are live.
	tb, err := s.st.Table("base")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	// Warm a sampled and an exact tile and the extent, so a stale one
	// would be served.
	tiles := []string{"/v1/tile/base/0/0/0.png?budget=150us&size=64", "/v1/tile/base/0/0/0.png?exact=true&size=64"}
	for _, url := range tiles {
		if rec := get(t, s, url); rec.Code != http.StatusOK {
			t.Fatalf("warm tile %s = %d", url, rec.Code)
		}
	}

	rec := postJSON(t, s, "/v1/append/base", `{"points": [[500, 500], [501, 501], [502, 502]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("append = %d, body %s", rec.Code, rec.Body)
	}
	var out AppendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Appended != 3 || out.Rows != 403 {
		t.Fatalf("append response = %+v, want 3 appended / 403 rows", out)
	}
	// No tile rendered before the append is served after it: the rows
	// grow the extent, so both tiles are drawn anew.
	for _, url := range tiles {
		sameAsFresh(t, s, url)
	}
	// The appended rows are immediately visible to exact queries.
	rec = get(t, s, "/v1/query?table=base&exact=true&minx=450&miny=450&maxx=550&maxy=550")
	if rec.Code != http.StatusOK {
		t.Fatalf("exact query = %d, body %s", rec.Code, rec.Body)
	}
	var q QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Points) != 3 || q.ServedRows != 403 {
		t.Fatalf("exact query after append: %d points, servedRows %d", len(q.Points), q.ServedRows)
	}

	// The row-major shape works too.
	rec = postJSON(t, s, "/v1/append/base", `{"rows": [[600, 600]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("rows append = %d, body %s", rec.Code, rec.Body)
	}

	// Error cases.
	for _, c := range []struct {
		url, body string
		code      int
	}{
		{"/v1/append/ghost", `{"points": [[1, 2]]}`, http.StatusNotFound},
		{"/v1/append/ghost", `{}`, http.StatusNotFound},                        // empty no-op still checks the table
		{"/v1/append/base", `{"points": [[5]]}`, http.StatusBadRequest},        // missing y
		{"/v1/append/base", `{"points": [[1, 2, 99]]}`, http.StatusBadRequest}, // stray value
		{"/v1/append/base", `{"points": [[1,2]], "rows": [[1,2]]}`, http.StatusBadRequest},
		{"/v1/append/base", `{"rows": [[1, 2, 3]]}`, http.StatusBadRequest}, // width != schema
		{"/v1/append/base", `{"rows": [[1, 2], [3]]}`, http.StatusBadRequest},
		{"/v1/append/base", `not json`, http.StatusBadRequest},
	} {
		if rec := postJSON(t, s, c.url, c.body); rec.Code != c.code {
			t.Errorf("POST %s %s = %d, want %d (body %s)", c.url, c.body, rec.Code, c.code, rec.Body)
		}
	}

	// Ingest counters on /metrics.
	body := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"vasserve_ingest_batches_total 2",
		"vasserve_ingest_rows_total 4",
		`vasserve_store_table_tail_rows{table="base"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestAppendHookRoutesBatches verifies a configured AppendHook receives
// the parsed batch instead of the store being written directly.
func TestAppendHookRoutesBatches(t *testing.T) {
	st := store.New()
	if _, err := st.CreateTable("base", "x", "y"); err != nil {
		t.Fatal(err)
	}
	var gotTable string
	var gotCols [][]float64
	s := newServer(st, Config{
		AppendHook: func(table string, cols [][]float64) (int, error) {
			gotTable, gotCols = table, cols
			return len(cols[0]), nil
		},
	})
	rec := postJSON(t, s, "/v1/append/base", `{"points": [[1, 2], [3, 4]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("append = %d, body %s", rec.Code, rec.Body)
	}
	if gotTable != "base" || len(gotCols) != 2 || gotCols[0][1] != 3 || gotCols[1][1] != 4 {
		t.Fatalf("hook saw table %q cols %v", gotTable, gotCols)
	}
	// The hook owns the store write; the table itself must be untouched.
	tb, _ := st.Table("base")
	if tb.NumRows() != 0 {
		t.Fatalf("server wrote the store despite the hook: %d rows", tb.NumRows())
	}
}

func TestHealthAndMetrics(t *testing.T) {
	s := newTestServer(t)
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	// Generate some traffic so counters are non-zero.
	get(t, s, "/v1/query?table=base&budget=150us")
	get(t, s, "/v1/tile/base/0/0/0.png?budget=150us&size=64")
	get(t, s, "/v1/tile/base/0/0/0.png?budget=150us&size=64")
	get(t, s, "/v1/query?table=ghost&exact=true") // one error
	// One filtered probe so the zone-map counters move.
	get(t, s, "/v1/query?table=base&budget=150us&filter=x:100:199&minx=0&miny=0&maxx=399&maxy=399")

	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`vasserve_requests_total{route="query"} 3`,
		`vasserve_requests_total{route="tile"} 2`,
		`vasserve_request_errors_total{route="query",class="4xx"} 1`,
		`vasserve_request_errors_total{route="query",class="5xx"} 0`,
		`vasserve_tile_cache_hits_total 1`,
		`vasserve_tile_cache_misses_total 1`,
		`vasserve_tile_cache_hit_ratio 0.5`,
		`vasserve_request_latency_p50_seconds`,
		`vasserve_request_latency_p99_seconds`,
		`vasserve_store_filtered_probes_total 1`,
		`vasserve_store_zone_cells_touched_total`,
		`vasserve_store_zone_cells_pruned_total`,
		`vasserve_store_batched_rows_total`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
	// The filtered probe touched at least one cell.
	if strings.Contains(body, "vasserve_store_zone_cells_touched_total 0\n") {
		t.Error("filtered probe recorded zero touched cells")
	}
}

// TestFilterCacheKeyCollision pins the canonical-key fix: column names
// may contain ":" and "|" (the key's own separators), so without
// length-prefixing, the ONE-filter set on column "a:1:2|b" and the
// TWO-filter set on "a" and "b" would produce the same key and serve
// each other's cached tiles.
func TestFilterCacheKeyCollision(t *testing.T) {
	canonOf := func(query string) string {
		t.Helper()
		_, canon, err := parseFilters(httptest.NewRequest("GET", "/v1/query?"+query, nil))
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		return canon
	}
	one := canonOf("filter=a:1:2%7Cb:3:4") // column "a:1:2|b", bounds 3..4
	two := canonOf("filter=a:1:2&filter=b:3:4")
	if one == two {
		t.Fatalf("collision: %q and the a+b pair share cache key %q", "a:1:2|b:3:4", one)
	}
	// Equivalent spellings of the same set still share one key...
	if canonOf("filter=a:1:2") != canonOf("filter=a:1.0:2.00") {
		t.Error("equivalent bound spellings got different keys")
	}
	// ...including across ordering.
	if canonOf("filter=a:1:2&filter=b:3:4") != canonOf("filter=b:3:4&filter=a:1:2") {
		t.Error("filter order fragmented the key")
	}
	// A colon-bearing column is parsed from the right.
	preds, _, err := parseFilters(httptest.NewRequest("GET", "/v1/query?filter=t:s:1:2", nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0].Column != "t:s" || preds[0].Min != 1 || preds[0].Max != 2 {
		t.Fatalf("parsed %+v, want column \"t:s\" in [1,2]", preds)
	}
}

// TestQueryMultiRect: repeatable rect= parameters answer the union of
// the viewports, pinned against the two single-rect answers.
func TestQueryMultiRect(t *testing.T) {
	s := newTestServer(t)
	fetch := func(url string) QueryResponse {
		t.Helper()
		rec := get(t, s, url)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, body %s", url, rec.Code, rec.Body)
		}
		var out QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// The base table is 400 points on the diagonal.
	a := fetch("/v1/query?table=base&exact=true&rect=0:0:50:50")
	b := fetch("/v1/query?table=base&exact=true&rect=300:300:399:399")
	u := fetch("/v1/query?table=base&exact=true&rect=0:0:50:50&rect=300:300:399:399")
	if len(a.Points) != 51 || len(b.Points) != 100 {
		t.Fatalf("single rects returned %d and %d points", len(a.Points), len(b.Points))
	}
	if len(u.Points) != len(a.Points)+len(b.Points) {
		t.Fatalf("disjoint union = %d points, want %d", len(u.Points), len(a.Points)+len(b.Points))
	}
	want := append(append([][2]float64{}, a.Points...), b.Points...)
	for i, p := range u.Points {
		if p != want[i] {
			t.Fatalf("union point %d = %v, differs from the single-rect answers' union %v", i, p, want[i])
		}
	}
	if u.ServedRows != 400 {
		t.Errorf("union servedRows = %d, want 400", u.ServedRows)
	}
	// Overlapping rectangles return each row once.
	o := fetch("/v1/query?table=base&exact=true&rect=0:0:100:100&rect=50:50:150:150")
	if len(o.Points) != 151 {
		t.Fatalf("overlapping union = %d points, want 151 distinct", len(o.Points))
	}
	// Filters still push down into every rectangle.
	f := fetch("/v1/query?table=base&exact=true&rect=0:0:100:100&rect=200:200:300:300&filter=x:90:210")
	for _, p := range f.Points {
		if p[0] < 90 || p[0] > 210 {
			t.Errorf("point %v escapes the filter", p)
		}
	}
	// Budgeted (sampled) union works too: strict subset of the sample.
	if s := fetch("/v1/query?table=base&budget=150us&rect=0:0:100:100"); len(s.Points) == 0 || len(s.Points) >= 100 {
		t.Errorf("sampled rect query = %d points, want a strict subset", len(s.Points))
	}

	// rect= and minx/... are two spellings of the same thing: reject the mix.
	for _, bad := range []string{
		"/v1/query?table=base&exact=true&rect=0:0:50:50&minx=0&miny=0&maxx=9&maxy=9",
		"/v1/query?table=base&exact=true&rect=0:0:50",      // 3 fields
		"/v1/query?table=base&exact=true&rect=0:0:50:zz",   // not a number
		"/v1/query?table=base&exact=true&rect=50:50:10:10", // empty
	} {
		if rec := get(t, s, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400 (body %s)", bad, rec.Code, rec.Body)
		}
	}
}

// TestDeleteEndpoint drives POST /v1/delete/{table} end to end:
// tombstoning, live-row accounting in every surface that reports rows,
// cache invalidation, and the delete metrics.
func TestDeleteEndpoint(t *testing.T) {
	s := newTestServer(t)
	// Index the base table (as the catalog façade does at load time): the
	// per-table live/dead gauges report indexed tables.
	tb, err := s.st.Table("base")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	// Warm an exact tile, so a stale one would be served.
	const exactTile = "/v1/tile/base/0/0/0.png?exact=true&size=64"
	if rec := get(t, s, exactTile); rec.Code != http.StatusOK {
		t.Fatalf("warm tile = %d", rec.Code)
	}

	rec := postJSON(t, s, "/v1/delete/base", `{"filters": [{"column": "x", "min": 100, "max": 199}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete = %d, body %s", rec.Code, rec.Body)
	}
	var out DeleteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Deleted != 100 || out.Rows != 300 {
		t.Fatalf("delete response = %+v, want 100 deleted / 300 live rows", out)
	}
	sameAsFresh(t, s, exactTile)

	// Every rows surface now reports LIVE rows: the query response...
	qrec := get(t, s, "/v1/query?table=base&exact=true")
	var q QueryResponse
	if err := json.Unmarshal(qrec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.ServedRows != 300 || len(q.Points) != 300 {
		t.Fatalf("exact query after delete: servedRows %d, %d points; want 300/300", q.ServedRows, len(q.Points))
	}
	for _, p := range q.Points {
		if p[0] >= 100 && p[0] <= 199 {
			t.Errorf("deleted point %v served", p)
		}
	}
	// ...the tile header...
	trec := get(t, s, "/v1/tile/base/0/0/0.png?exact=true&size=64")
	if trec.Code != http.StatusOK {
		t.Fatalf("tile after delete = %d", trec.Code)
	}
	if got := trec.Header().Get("X-Vas-Served-Rows"); got != "300" {
		t.Errorf("X-Vas-Served-Rows = %q, want 300", got)
	}
	// ...and the tables listing (Rows stays physical, LiveRows drops).
	lrec := get(t, s, "/v1/tables")
	var listing struct {
		Tables []TableInfo `json:"tables"`
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Tables[0].Rows != 400 || listing.Tables[0].LiveRows != 300 {
		t.Errorf("listing rows = %d/%d live, want 400/300", listing.Tables[0].Rows, listing.Tables[0].LiveRows)
	}

	// Deleting the same slice again is a no-op: it publishes no new
	// generation, so the exact tile stays cached.
	rec = postJSON(t, s, "/v1/delete/base", `{"filters": [{"column": "x", "min": 100, "max": 199}]}`)
	out = DeleteResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Deleted != 0 {
		t.Errorf("no-op delete deleted %d", out.Deleted)
	}
	if h := get(t, s, exactTile).Header().Get("X-Cache"); h != "HIT" {
		t.Errorf("exact tile after a no-op delete: X-Cache = %q, want HIT", h)
	}

	// Rect deletes use the configured x/y columns; open-sided filters work.
	rec = postJSON(t, s, "/v1/delete/base", `{"rect": {"minX": 0, "minY": 0, "maxX": 49, "maxY": 49}}`)
	out = DeleteResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Deleted != 50 || out.Rows != 250 {
		t.Errorf("rect delete = %+v, want 50 deleted / 250 rows", out)
	}
	rec = postJSON(t, s, "/v1/delete/base", `{"filters": [{"column": "x", "min": 350}]}`)
	out = DeleteResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Deleted != 50 || out.Rows != 200 {
		t.Errorf("open-sided delete = %+v, want 50 deleted / 200 rows", out)
	}

	// Error cases: an empty body is a refused foot-gun, all:true is the
	// explicit spelling; unknown tables and columns are 404s.
	for _, c := range []struct {
		url, body string
		code      int
	}{
		{"/v1/delete/base", `{}`, http.StatusBadRequest},
		{"/v1/delete/base", `{"filters": []}`, http.StatusBadRequest},
		{"/v1/delete/base", `{"filters": [{"min": 1}]}`, http.StatusBadRequest},
		{"/v1/delete/base", `not json`, http.StatusBadRequest},
		{"/v1/delete/ghost", `{"all": true}`, http.StatusNotFound},
		{"/v1/delete/base", `{"filters": [{"column": "ghost"}]}`, http.StatusNotFound},
	} {
		if rec := postJSON(t, s, c.url, c.body); rec.Code != c.code {
			t.Errorf("POST %s %s = %d, want %d (body %s)", c.url, c.body, rec.Code, c.code, rec.Body)
		}
	}

	// all:true takes the remaining 200 rows.
	rec = postJSON(t, s, "/v1/delete/base", `{"all": true}`)
	out = DeleteResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Deleted != 200 || out.Rows != 0 {
		t.Errorf("delete-all = %+v, want 200 deleted / 0 rows", out)
	}

	// Delete metrics and tombstone gauges.
	body := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"vasserve_delete_requests_total 4",
		"vasserve_delete_rows_total 400",
		"vasserve_store_tombstoned_rows 400",
		"vasserve_store_deleted_rows_total 400",
		`vasserve_store_table_live_rows{table="base"} 0`,
		`vasserve_store_table_dead_rows{table="base"} 400`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDeleteHookRoutesPredicates mirrors the append hook test: a
// configured DeleteHook owns the delete, the store is untouched.
func TestDeleteHookRoutesPredicates(t *testing.T) {
	st := store.New()
	tb, err := st.CreateTable("base", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoad([]float64{1, 2, 3}, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	var gotTable string
	var gotPreds []store.Pred
	s := newServer(st, Config{
		DeleteHook: func(table string, preds []store.Pred) (int, error) {
			gotTable, gotPreds = table, preds
			return 2, nil
		},
	})
	rec := postJSON(t, s, "/v1/delete/base", `{"filters": [{"column": "x", "max": 2}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete = %d, body %s", rec.Code, rec.Body)
	}
	if gotTable != "base" || len(gotPreds) != 1 || gotPreds[0].Column != "x" || gotPreds[0].Max != 2 {
		t.Fatalf("hook saw table %q preds %+v", gotTable, gotPreds)
	}
	if tb.LiveRows() != 3 {
		t.Fatalf("server deleted from the store despite the hook: %d live", tb.LiveRows())
	}
}

// TestEmptyAppendIsNoOp: a `{}` (or explicitly empty) append batch
// returns 200 with appended=0 and publishes no new generation — the
// retry-with-empty-tail client pattern must not cost warm exact tiles.
func TestEmptyAppendIsNoOp(t *testing.T) {
	s := newTestServer(t)
	tiles := []string{"/v1/tile/base/0/0/0.png?budget=150us&size=64", "/v1/tile/base/0/0/0.png?exact=true&size=64"}
	for _, url := range tiles {
		if rec := get(t, s, url); rec.Code != http.StatusOK {
			t.Fatalf("warm tile %s = %d", url, rec.Code)
		}
	}
	for _, body := range []string{`{}`, `{"points": []}`, `{"rows": []}`} {
		rec := postJSON(t, s, "/v1/append/base", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("append %s = %d, body %s", body, rec.Code, rec.Body)
		}
		var out AppendResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Appended != 0 || out.Rows != 400 {
			t.Errorf("append %s = %+v, want 0 appended / 400 rows", body, out)
		}
	}
	// The warm tiles are still HITs.
	for _, url := range tiles {
		if rec := get(t, s, url); rec.Header().Get("X-Cache") != "HIT" {
			t.Errorf("empty append cost the warm tile %s", url)
		}
	}
	// Specifying BOTH shapes stays a 400 even when both are empty-ish.
	if rec := postJSON(t, s, "/v1/append/base", `{"points": [[1,2]], "rows": [[3,4]]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("both-shapes append = %d, want 400", rec.Code)
	}
}

func TestNearestEndpoint(t *testing.T) {
	s := newTestServer(t)
	// The base table is a diagonal (i, i); from (10.2, 10.2) the nearest
	// three rows are 10, 11, 9 in that order.
	rec := get(t, s, "/v1/nearest?table=base&x=10.2&y=10.2&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var out NearestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Table != "base" || out.K != 3 || out.ServedRows != 400 {
		t.Errorf("response envelope = %+v", out)
	}
	if len(out.Neighbors) != 3 {
		t.Fatalf("neighbors = %+v, want 3", out.Neighbors)
	}
	for i, want := range []int{10, 11, 9} {
		if out.Neighbors[i].Row != want {
			t.Errorf("neighbor %d = row %d, want %d", i, out.Neighbors[i].Row, want)
		}
	}
	for i := 1; i < len(out.Neighbors); i++ {
		if out.Neighbors[i].Dist < out.Neighbors[i-1].Dist {
			t.Errorf("neighbors not ascending by distance: %+v", out.Neighbors)
		}
	}
	// A pushdown filter excludes rows below x=11.
	rec = get(t, s, "/v1/nearest?table=base&x=10.2&y=10.2&k=2&filter=x:11:")
	if rec.Code != http.StatusOK {
		t.Fatalf("filtered status = %d, body %s", rec.Code, rec.Body)
	}
	out = NearestResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Neighbors) != 2 || out.Neighbors[0].Row != 11 || out.Neighbors[1].Row != 12 {
		t.Errorf("filtered neighbors = %+v, want rows 11, 12", out.Neighbors)
	}
	// k defaults to 1.
	rec = get(t, s, "/v1/nearest?table=base&x=42&y=42")
	out = NearestResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Neighbors) != 1 || out.Neighbors[0].Row != 42 || out.Neighbors[0].Dist != 0 {
		t.Errorf("default-k neighbors = %+v, want row 42 at distance 0", out.Neighbors)
	}

	// Error surface.
	for url, want := range map[string]int{
		"/v1/nearest?x=1&y=1":                     http.StatusBadRequest, // no table
		"/v1/nearest?table=base&y=1":              http.StatusBadRequest, // no x
		"/v1/nearest?table=base&x=zap&y=1":        http.StatusBadRequest,
		"/v1/nearest?table=base&x=1&y=1&k=0":      http.StatusBadRequest,
		"/v1/nearest?table=base&x=1&y=1&k=-3":     http.StatusBadRequest,
		"/v1/nearest?table=base&x=1&y=1&filter=x": http.StatusBadRequest,
		"/v1/nearest?table=nope&x=1&y=1":          http.StatusNotFound,
	} {
		if rec := get(t, s, url); rec.Code != want {
			t.Errorf("GET %s = %d, want %d (body %s)", url, rec.Code, want, rec.Body)
		}
	}

	// The kNN counter and backend gauges surface on /metrics.
	mrec := get(t, s, "/metrics")
	body := mrec.Body.String()
	for _, want := range []string{
		"vasserve_nearest_requests_total 3",
		`vasserve_requests_total{route="nearest"}`,
		"vasserve_store_index_backend{table=",
		"vasserve_store_index_skew_ratio{table=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestNonFiniteAnswerIs500: a base table holding a NaN row and a +Inf
// row cannot be answered as JSON. The exact query, the same query in a
// finite viewport (NaN rows match every range) and kNN each answer 500
// with a JSON error body, counted as an error, not 200 with no body. A
// finite answer's body is exactly what encoding/json's Encoder writes,
// trailing newline included, with its Content-Length.
func TestNonFiniteAnswerIs500(t *testing.T) {
	st := store.New()
	base, err := st.CreateTable("base", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	// Enough rows that the viewport query probes the grid index.
	xs, ys := make([]float64, 2000), make([]float64, 2000)
	for i := range xs {
		xs[i], ys[i] = float64(i%50), float64(i/50)
	}
	xs[700], ys[700], xs[1300] = math.NaN(), math.NaN(), math.Inf(1)
	if err := base.BulkLoad(xs, ys); err != nil {
		t.Fatal(err)
	}
	s := newServer(st, Config{})
	for _, url := range []string{
		"/v1/query?table=base&exact=true",
		"/v1/query?table=base&exact=true&minx=0&miny=0&maxx=3&maxy=3",
		"/v1/nearest?table=base&x=1&y=1&k=2000",
	} {
		rec := get(t, s, url)
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || body["error"] == "" {
			t.Errorf("%s: status %d, body %q (%v), want 500 with an error", url, rec.Code, rec.Body, err)
		}
	}
	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		`vasserve_request_errors_total{route="query",class="5xx"} 2`,
		`vasserve_request_errors_total{route="nearest",class="5xx"} 1`,
		`vasserve_request_errors_total{route="query",class="4xx"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A finite answer is unchanged.
	rec := get(t, newTestServer(t), "/v1/query?table=base&exact=true&minx=0&miny=0&maxx=3&maxy=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("finite query: status %d, body %s", rec.Code, rec.Body)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Errorf("finite body %q, Encoder writes %q", rec.Body, want.Bytes())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}
