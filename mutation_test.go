package vas_test

// Tests of the catalog's write path: every append and delete — façade
// or HTTP — lands in the store, the snapshot tail log and the tile
// cache through one step, and LoadSnapshot replays the log through the
// same step before it publishes anything.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	vas "repro"
)

// gridPoints returns an nx×ny lattice of points at integer coordinates
// shifted by (dx, dy).
func gridPoints(nx, ny int, dx, dy float64) []vas.Point {
	pts := make([]vas.Point, 0, nx*ny)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			pts = append(pts, vas.Point{X: float64(i) + dx, Y: float64(j) + dy})
		}
	}
	return pts
}

func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestMutationLogGolden pins the bytes the write path persists. A
// seeded schedule interleaves façade and HTTP appends and deletes on
// one base table; the tail log it leaves, and the base file a final
// save folds it into, must hash to the recorded values. A second case
// checks that a multi-table catalog's snapshot bytes do not depend on
// map iteration order.
func TestMutationLogGolden(t *testing.T) {
	const (
		wantTail = "af1673e577f0df7efb3b0c0a5a6606e09e07184c1e588845be1c52f14eae4dd8"
		wantSnap = "274c777766a580676fb989e2d186b98c9adfcff05b2ec2961260e7bd96624eaf"
	)
	cat := vas.NewCatalog()
	// No background compaction: it would fold the appended tails into
	// the indexes at times the schedule does not control.
	cat.SetCompactFraction(0)
	if err := cat.LoadTable("base", gridPoints(40, 50, 0, 0)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	t.Cleanup(cat.WaitBackground)
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cat.Handler())
	defer srv.Close()
	post := func(path string, body any) {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		postBytes(t, srv.URL+path, string(data))
	}
	rng := rand.New(rand.NewSource(36))
	randPoints := func() [][]float64 {
		pts := make([][]float64, 1+rng.Intn(6))
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 40, rng.Float64() * 50}
		}
		return pts
	}
	randRect := func() vas.Rect {
		x, y := float64(rng.Intn(38)), float64(rng.Intn(48))
		return vas.Rect{MinX: x - 0.5, MinY: y - 0.5, MaxX: x + 1.5, MaxY: y + 0.5}
	}
	// The schedule changes well under a quarter of the table's rows, so
	// no background re-save folds the tail while it runs.
	for op := 0; op < 40; op++ {
		switch rng.Intn(4) {
		case 0:
			var pts []vas.Point
			for _, p := range randPoints() {
				pts = append(pts, vas.Point{X: p[0], Y: p[1]})
			}
			if err := cat.Append("base", pts); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := cat.DeleteWhere("base", rectPreds(randRect())); err != nil {
				t.Fatal(err)
			}
		case 2:
			post("/v1/append/base", map[string]any{"points": randPoints()})
		case 3:
			r := randRect()
			post("/v1/delete/base", map[string]any{
				"rect": map[string]float64{"minX": r.MinX, "minY": r.MinY, "maxX": r.MaxX, "maxY": r.MaxY},
			})
		}
	}
	cat.WaitBackground()
	tail := fileSHA256(t, filepath.Join(dir, vas.TailFile))
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	snap := fileSHA256(t, filepath.Join(dir, vas.SnapshotFile))
	if tail != wantTail || snap != wantSnap {
		t.Errorf("persisted bytes moved:\n tail %s, want %s\n snap %s, want %s", tail, wantTail, snap, wantSnap)
	}

	t.Run("multi-table saves are deterministic", func(t *testing.T) {
		save := func() []byte {
			c := vas.NewCatalog()
			// More tables than one map group holds, so map iteration
			// order varies between catalogs.
			for i := 0; i < 20; i++ {
				if err := c.LoadTable(fmt.Sprintf("t%d", i), gridPoints(2+i, 3, float64(i), 0)); err != nil {
					t.Fatal(err)
				}
			}
			d := t.TempDir()
			if err := c.SaveSnapshot(d); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(d, vas.SnapshotFile))
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		if !bytes.Equal(save(), save()) {
			t.Fatal("two identically built catalogs saved different snapshot bytes")
		}
	})
}

// TestLoadSnapshotPublishesAfterTailReplay: a reader polling the exact
// row count while LoadSnapshot restores a snapshot with a tail must see
// the catalog's old count or the fully replayed one — never the base
// file's rows with only part of the tail on top.
func TestLoadSnapshotPublishesAfterTailReplay(t *testing.T) {
	src := vas.NewCatalog()
	if err := src.LoadTable("base", gridPoints(40, 50, 0, 0)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := src.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	// Many one-row batches: each is its own tail record, so a replay
	// after publication would expose many distinct partial counts.
	// 400 rows stay under the re-save threshold, so the tail survives.
	const batches = 400
	for i := 0; i < batches; i++ {
		if err := src.Append("base", []vas.Point{{X: 100 + float64(i), Y: 100}}); err != nil {
			t.Fatal(err)
		}
	}
	src.WaitBackground()
	const oldRows, finalRows = 30, 40*50 + batches

	cat := vas.NewCatalog()
	if err := cat.LoadTable("base", gridPoints(5, 6, 0, 0)); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var seen sync.Map
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			res, err := tryQuery(cat, "base", "exact=true")
			if err != nil {
				t.Error(err)
				return
			}
			seen.Store(len(res.Points), true)
		}
	}()
	var loadErr error
	for i := 0; i < 5 && loadErr == nil; i++ {
		loadErr = cat.LoadSnapshot(dir)
	}
	stop.Store(true)
	wg.Wait()
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	bad := 0
	seen.Range(func(k, _ any) bool {
		if n := k.(int); n != oldRows && n != finalRows {
			if bad++; bad <= 5 {
				t.Errorf("reader saw %d rows; want only %d (before) or %d (after)", n, oldRows, finalRows)
			}
		}
		return true
	})
	if bad > 0 {
		t.Fatalf("reader saw %d intermediate row counts", bad)
	}
	if res := query(t, cat, "base", "exact=true"); len(res.Points) != finalRows {
		t.Fatalf("after load: %d rows, want %d", len(res.Points), finalRows)
	}
}

// TestSampleTablesRefuseWrites: a sample is built offline from its base
// table (§II-D) and only read while serving, so an append or a delete
// naming one is refused with 409 through the catalog's handler. The
// sample keeps its rows, the tail log keeps its bytes, and a reload
// serves the same sample.
func TestSampleTablesRefuseWrites(t *testing.T) {
	pts := gridPoints(40, 50, 0, 0)
	cat := vas.NewCatalog()
	if err := cat.LoadTable("base", pts); err != nil {
		t.Fatal(err)
	}
	if err := cat.BuildSamples("base", pts, []int{100}, false, vas.Options{Passes: 1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	// One acknowledged base append, so the tail log has bytes to keep.
	if err := cat.Append("base", []vas.Point{{X: 0.5, Y: 0.5}}); err != nil {
		t.Fatal(err)
	}
	tail := filepath.Join(dir, vas.TailFile)
	tailSum := fileSHA256(t, tail)
	want := query(t, cat, "base", "budget=1600ms")
	if want.Sample != "base_vas_100" || len(want.Points) != 100 {
		t.Fatalf("served %d points from %q, want the whole base_vas_100", len(want.Points), want.Sample)
	}

	for _, w := range []struct{ path, body string }{
		{"/v1/append/base_vas_100", `{"points": [[1000, 1000]]}`},
		{"/v1/delete/base_vas_100", `{"all": true}`},
	} {
		rec := httptest.NewRecorder()
		cat.Handler().ServeHTTP(rec, httptest.NewRequest("POST", w.path, strings.NewReader(w.body)))
		if rec.Code != http.StatusConflict {
			t.Errorf("POST %s: status %d, want 409: %s", w.path, rec.Code, rec.Body)
		}
	}
	if got := fileSHA256(t, tail); got != tailSum {
		t.Error("a refused write reached the tail log")
	}
	restored := vas.NewCatalog()
	if err := restored.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*vas.Catalog{"served": cat, "reloaded": restored} {
		got := query(t, c, "base", "budget=1600ms")
		if got.Sample != want.Sample || !slices.Equal(got.Points, want.Points) {
			t.Errorf("%s: %d points from %q, want the sample's %d as built", name, len(got.Points), got.Sample, len(want.Points))
		}
	}
}
