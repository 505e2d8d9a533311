package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/store"
)

// densityOf is the density value the test stores for a sample point, so
// a reader can check each returned count against its own point.
func densityOf(x, y float64) float64 { return x*1000 + y }

// TestRequestsReadOneGeneration drives exact, filtered, multi-rect and
// sampled-with-density queries, exact tiles, kNN and the table listing
// while a writer appends, deletes and runs reclaiming compactions on
// both the base table and the density sample. Each request reads one
// table generation, so every call succeeds, every exact point lies
// inside its viewport and filters, every density count belongs to its
// point, and no listing reports more live rows than rows. Op counts are
// fixed; nothing sleeps.
func TestRequestsReadOneGeneration(t *testing.T) {
	st := store.New()
	base, err := st.CreateTable("base", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	grid := func(n int) ([]float64, []float64) {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = float64(rng.Intn(200)), float64(rng.Intn(200))
		}
		return xs, ys
	}
	if err := base.BulkLoad(grid(4000)); err != nil {
		t.Fatal(err)
	}
	if err := base.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	sxs, sys := grid(400)
	pts := make([]geom.Point, len(sxs))
	dens := make([]int64, len(sxs))
	for i := range pts {
		pts[i] = geom.Pt(sxs[i], sys[i])
		dens[i] = int64(densityOf(sxs[i], sys[i]))
	}
	if err := query.LoadSample(st, "base_vas", store.SampleMeta{
		Source: "base", Method: "vas", XCol: "x", YCol: "y",
	}, pts, dens); err != nil {
		t.Fatal(err)
	}
	sample, err := st.Table("base_vas")
	if err != nil {
		t.Fatal(err)
	}
	s := New(st, query.NewPlanner(st, fixedModel{}), Config{})

	const rounds, readers, reads = 120, 4, 120
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wr := rand.New(rand.NewSource(2))
		for i := 0; i < rounds; i++ {
			xs, ys := make([]float64, 40), make([]float64, 40)
			ds := make([]float64, 40)
			for j := range xs {
				xs[j], ys[j] = float64(wr.Intn(200)), float64(wr.Intn(200))
				ds[j] = densityOf(xs[j], ys[j])
			}
			x0, y0 := float64(wr.Intn(190)), float64(wr.Intn(190))
			strip := geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + 9, MaxY: y0 + 9}
			for _, tb := range []*store.Table{base, sample} {
				var err error
				if tb == base {
					err = tb.AppendRows(xs, ys)
				} else {
					err = tb.AppendRows(xs, ys, ds)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tb.DeleteRect("x", "y", strip); err != nil {
					t.Error(err)
					return
				}
				tb.Compact()
			}
			s.InvalidateTable("base")
		}
	}()

	vp := geom.Rect{MinX: 20, MinY: 30, MaxX: 120, MaxY: 150}
	rects := []geom.Rect{{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50}, {MinX: 100, MinY: 100, MaxX: 199, MaxY: 160}}
	inside := func(p [2]float64, rcs ...geom.Rect) bool {
		for _, r := range rcs {
			if r.Contains(geom.Pt(p[0], p[1])) {
				return true
			}
		}
		return false
	}
	check := func(url string, ok func(body []byte) error) error {
		rec := get(t, s, url)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s = %d: %s", url, rec.Code, rec.Body)
		}
		if ok == nil {
			return nil
		}
		if err := ok(rec.Body.Bytes()); err != nil {
			return fmt.Errorf("GET %s: %v", url, err)
		}
		return nil
	}
	queryCheck := func(pred func(p [2]float64) bool) func([]byte) error {
		return func(body []byte) error {
			var out QueryResponse
			if err := json.Unmarshal(body, &out); err != nil {
				return err
			}
			if out.Counts != nil && len(out.Counts) != len(out.Points) {
				return fmt.Errorf("%d counts for %d points", len(out.Counts), len(out.Points))
			}
			for i, p := range out.Points {
				if !pred(p) {
					return fmt.Errorf("point %v outside the request", p)
				}
				if out.Counts != nil && out.Counts[i] != densityOf(p[0], p[1]) {
					return fmt.Errorf("count %v does not belong to point %v", out.Counts[i], p)
				}
			}
			return nil
		}
	}
	requests := []struct {
		url string
		ok  func([]byte) error
	}{
		{fmt.Sprintf("/v1/query?table=base&exact=true&minx=%g&miny=%g&maxx=%g&maxy=%g&filter=x:40:90", vp.MinX, vp.MinY, vp.MaxX, vp.MaxY),
			queryCheck(func(p [2]float64) bool { return inside(p, vp) && p[0] >= 40 && p[0] <= 90 })},
		{"/v1/query?table=base&exact=true&rect=0:0:50:50&rect=100:100:199:160",
			queryCheck(func(p [2]float64) bool { return inside(p, rects...) })},
		{fmt.Sprintf("/v1/query?table=base&budget=10s&minx=%g&miny=%g&maxx=%g&maxy=%g", vp.MinX, vp.MinY, vp.MaxX, vp.MaxY),
			queryCheck(func(p [2]float64) bool { return inside(p, vp) })},
		{"/v1/query?table=base&budget=10s", queryCheck(func([2]float64) bool { return true })},
		{"/v1/tile/base/0/0/0.png?exact=true&size=64", nil},
		{"/v1/tile/base/1/1/0.png?size=64", nil},
		{"/v1/nearest?table=base&x=100&y=100&k=5", func(body []byte) error {
			var out NearestResponse
			if err := json.Unmarshal(body, &out); err != nil {
				return err
			}
			if len(out.Neighbors) != 5 {
				return fmt.Errorf("%d neighbors, want 5", len(out.Neighbors))
			}
			return nil
		}},
		{"/v1/tables", func(body []byte) error {
			var out struct {
				Tables []TableInfo `json:"tables"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				return err
			}
			for _, ti := range out.Tables {
				if ti.LiveRows > ti.Rows {
					return fmt.Errorf("table %s: liveRows %d > rows %d", ti.Name, ti.LiveRows, ti.Rows)
				}
			}
			return nil
		}},
	}
	errs := make(chan error, readers*reads)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				req := requests[(r+i)%len(requests)]
				if err := check(req.url, req.ok); err != nil {
					errs <- err
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if failed < 5 {
			t.Error(err)
		}
		failed++
	}
	if failed > 0 {
		t.Fatalf("%d of %d requests failed", failed, readers*reads)
	}
}
