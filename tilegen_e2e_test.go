package vas_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"

	vas "repro"
)

// TestTilesNeverStale drives each kind of catalog write — Append,
// DeleteWhere, LoadTable, BuildSamples (after RegisterSample) and
// LoadSnapshot — against a catalog whose tiles are all cached, and
// checks after each write that every tile equals what a fresh catalog of
// the post-write state serves: a catalog that replayed the same writes
// and never cached a tile. Every write keeps the table's extent, so only
// the generation in the tile key can tell the old tiles from the new.
// A base-table append leaves the sample unchanged, so its sampled tiles
// stay cached: they are hits with the bytes served before it.
func TestTilesNeverStale(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 2000, Seed: 5})
	pts, b := d.Points, d.Bounds()
	// mirrored is the data flipped left to right: other rows, one extent.
	mirrored := make([]vas.Point, len(pts))
	for i, p := range pts {
		mirrored[i] = vas.Point{X: b.MinX + b.MaxX - p.X, Y: p.Y}
	}
	sample, err := vas.Build(pts, vas.Options{K: 60, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot LoadSnapshot restores: the original data and a sample
	// of it, where the catalog serves the mirrored data by then.
	snapDir := t.TempDir()
	{
		c := vas.NewCatalog()
		if err := c.LoadTable("gps", pts); err != nil {
			t.Fatal(err)
		}
		if err := c.BuildSamples("gps", pts, []int{60}, false, vas.Options{Passes: 1}); err != nil {
			t.Fatal(err)
		}
		if err := c.SaveSnapshot(snapDir); err != nil {
			t.Fatal(err)
		}
	}
	inside := vas.Point{X: (b.MinX + b.MaxX) / 2, Y: (b.MinY + b.MaxY) / 2}
	type write struct {
		name string
		do   func(c *vas.Catalog) error
	}
	writes := []write{
		{"Append", func(c *vas.Catalog) error { return c.Append("gps", []vas.Point{inside, inside}) }},
		{"DeleteWhere", func(c *vas.Catalog) error {
			_, err := c.DeleteWhere("gps", []vas.Pred{{Column: "x", Min: b.MinX + b.Width()/4, Max: inside.X}})
			return err
		}},
		{"LoadTable", func(c *vas.Catalog) error { return c.LoadTable("gps", mirrored) }},
		{"BuildSamples", func(c *vas.Catalog) error {
			return c.BuildSamples("gps", mirrored, []int{60}, false, vas.Options{Passes: 1})
		}},
		{"LoadSnapshot", func(c *vas.Catalog) error { return c.LoadSnapshot(snapDir) }},
	}
	// replay builds a catalog that has run the set-up and the first n
	// writes; it has served nothing yet.
	replay := func(n int) *vas.Catalog {
		t.Helper()
		c := vas.NewCatalog()
		if err := c.LoadTable("gps", pts); err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterSample("gps", sample, nil); err != nil {
			t.Fatal(err)
		}
		for _, w := range writes[:n] {
			if err := w.do(c); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
		return c
	}
	const sampled = "?budget=1600ms&size=64"
	tiles := []string{
		"/v1/tile/gps/0/0/0.png?exact=true&size=64",
		"/v1/tile/gps/1/0/1.png?exact=true&size=64",
		"/v1/tile/gps/0/0/0.png" + sampled,
		"/v1/tile/gps/1/0/1.png" + sampled,
	}
	fetch := func(c *vas.Catalog, url string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body)
		}
		return rec
	}

	cat := replay(0)
	for i, w := range writes {
		before := make(map[string][]byte)
		for _, url := range tiles {
			fetch(cat, url)
			rec := fetch(cat, url)
			if h := rec.Header().Get("X-Cache"); h != "HIT" {
				t.Fatalf("before %s: %s X-Cache = %q, want HIT", w.name, url, h)
			}
			before[url] = rec.Body.Bytes()
		}
		if err := w.do(cat); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		fresh := replay(i + 1)
		changed := 0
		for _, url := range tiles {
			got, want := fetch(cat, url), fetch(fresh, url)
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("after %s: %s differs from a fresh catalog's (X-Cache %s)", w.name, url, got.Header().Get("X-Cache"))
			}
			if !bytes.Equal(got.Body.Bytes(), before[url]) {
				changed++
			}
			if w.name == "Append" && strings.HasSuffix(url, sampled) {
				if h := got.Header().Get("X-Cache"); h != "HIT" || !bytes.Equal(got.Body.Bytes(), before[url]) {
					t.Errorf("after Append: sampled %s X-Cache = %q, same bytes %t; want a HIT with the bytes served before",
						url, h, bytes.Equal(got.Body.Bytes(), before[url]))
				}
			}
		}
		if changed == 0 {
			t.Errorf("%s changed no tile: the check above shows nothing", w.name)
		}
	}
}
