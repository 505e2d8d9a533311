package vas_test

// End-to-end tests of the kNN surface: /v1/nearest answered by a
// tree-backed catalog must survive a snapshot save + restore
// byte-identically, and the catalog-level backend policy must flow
// through LoadTable, LoadSnapshot, and /metrics.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"

	vas "repro"
)

func TestNearestServesByteIdenticalAcrossSnapshotRestart(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 5000, Seed: 11})
	orig := vas.NewCatalog()
	if err := orig.SetIndexBackend(vas.IndexBackendRTree); err != nil {
		t.Fatal(err)
	}
	if err := orig.LoadTable("gps", d.Points); err != nil {
		t.Fatal(err)
	}
	if err := orig.BuildSamples("gps", d.Points, snapBuildSizes, true, snapBuildOpts()); err != nil {
		t.Fatal(err)
	}
	// Mutate past the bulk load so the tree answers through its delta and
	// tombstones too: appended points near the data center, then a small
	// rect delete.
	c := d.Bounds().Center()
	if err := orig.Append("gps", []vas.Point{
		vas.Pt(c.X+0.001, c.Y+0.001), vas.Pt(c.X-0.002, c.Y+0.003),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := orig.DeleteRect("gps", vas.Rect{
		MinX: c.X + 0.01, MinY: c.Y + 0.01, MaxX: c.X + 0.02, MaxY: c.Y + 0.02,
	}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := orig.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded := vas.NewCatalog()
	if err := loaded.SetIndexBackend(vas.IndexBackendRTree); err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	origSrv := httptest.NewServer(orig.Handler())
	defer origSrv.Close()
	loadedSrv := httptest.NewServer(loaded.Handler())
	defer loadedSrv.Close()

	fetch := func(srv *httptest.Server, url string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	urls := []string{
		// Interior point, a larger k, a query outside the extent, and a
		// filtered query — all must answer identically after the restart.
		"/v1/nearest?table=gps&x=116.3&y=39.9&k=5",
		"/v1/nearest?table=gps&x=116.32&y=39.98&k=64",
		"/v1/nearest?table=gps&x=500&y=500&k=3",
		"/v1/nearest?table=gps&x=116.3&y=39.9&k=10&filter=x:116.3:",
	}
	for _, u := range urls {
		origCode, origBody := fetch(origSrv, u)
		if origCode != http.StatusOK {
			t.Fatalf("GET %s = %d, body %s", u, origCode, origBody)
		}
		loadedCode, loadedBody := fetch(loadedSrv, u)
		if loadedCode != http.StatusOK {
			t.Fatalf("restored GET %s = %d, body %s", u, loadedCode, loadedBody)
		}
		// Everything semantic — table, k, the neighbor rows with their
		// coordinates and distances, servedRows — precedes planMillis in
		// the response and must be byte-identical. planMillis is
		// wall-clock, and the scan tallies may differ structurally: the
		// saved index covers rows the original process still held in its
		// append tail, so the same answer can cost a different number of
		// row examinations.
		strip := func(s string) string {
			i := strings.Index(s, `"planMillis"`)
			if i < 0 {
				t.Fatalf("GET %s: unexpected body shape %s", u, s)
			}
			return s[:i]
		}
		if strip(origBody) != strip(loadedBody) {
			t.Errorf("GET %s answered differently after restart:\n  before: %s\n  after:  %s", u, origBody, loadedBody)
		}
		for side, body := range map[string]string{"original": origBody, "restored": loadedBody} {
			if !strings.Contains(body, `"indexProbe":true`) {
				t.Errorf("GET %s: %s answer did not use an index probe: %s", u, side, body)
			}
		}
		// k neighbors, nearest first, each inside the filter.
		var out struct {
			K         int `json:"k"`
			Neighbors []struct {
				X, Dist float64
			} `json:"neighbors"`
		}
		if err := json.Unmarshal([]byte(loadedBody), &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Neighbors) != out.K {
			t.Errorf("GET %s: %d neighbors, want %d", u, len(out.Neighbors), out.K)
		}
		for i, nb := range out.Neighbors {
			if i > 0 && nb.Dist < out.Neighbors[i-1].Dist {
				t.Errorf("GET %s: neighbors not nearest-first: %+v", u, out.Neighbors)
			}
			if strings.Contains(u, "filter=x:116.3:") && nb.X < 116.3 {
				t.Errorf("GET %s: neighbor x %v escapes the filter", u, nb.X)
			}
		}
	}

	// Both catalogs report the forced backend on /metrics.
	for name, srv := range map[string]*httptest.Server{"original": origSrv, "restored": loadedSrv} {
		_, body := fetch(srv, "/metrics")
		if !strings.Contains(body, `vasserve_store_index_backend{table="gps",backend="rtree"} 1`) {
			t.Errorf("%s /metrics does not report the rtree backend for gps", name)
		}
		if want := fmt.Sprintf("vasserve_nearest_requests_total %d", len(urls)); !strings.Contains(body, want) {
			t.Errorf("%s /metrics lacks %q", name, want)
		}
	}

	// The catalog-level API agrees with the HTTP surface.
	res, err := loaded.Nearest("gps", 116.3, 39.9, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 5 {
		t.Fatalf("catalog Nearest returned %d neighbors, want 5", len(res.Neighbors))
	}
	for i := 1; i < len(res.Neighbors); i++ {
		if res.Neighbors[i].Dist < res.Neighbors[i-1].Dist {
			t.Fatalf("catalog Nearest not ascending: %+v", res.Neighbors)
		}
	}
	if _, err := loaded.Nearest("gps", 1, 1, 0, nil); err == nil {
		t.Fatal("k=0 did not error")
	}
}

func TestCatalogSetIndexBackendValidates(t *testing.T) {
	cat := vas.NewCatalog()
	if err := cat.SetIndexBackend("btree"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, mode := range []string{"", vas.IndexBackendAuto, vas.IndexBackendGrid, vas.IndexBackendRTree} {
		if err := cat.SetIndexBackend(mode); err != nil {
			t.Fatalf("backend %q rejected: %v", mode, err)
		}
	}
}
