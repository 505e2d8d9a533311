package vas_test

// End-to-end tests of the retention layer (ISSUE 8 acceptance): deletes
// issued through the catalog API and through POST /v1/delete land in
// the snapshot tail log as predicate records, a restart replays them IN
// ORDER with the appends around them (a row appended into a region
// after that region was deleted must survive), a full save folds the
// tombstones into the base file, and multi-viewport Union queries
// answer identically before and after the round trip.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"

	vas "repro"
)

func TestRetentionSnapshotReplay(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 3000, Seed: 17})
	cat := newSnapshotCatalog(t, d)
	dir := t.TempDir()
	t.Cleanup(cat.WaitBackground)
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	// The Geolife-like data lives at China scale, so everything around
	// (1000, 1000) is exclusively ours.
	probe := vas.Rect{MinX: 999, MinY: 999, MaxX: 1006, MaxY: 1006}
	pts := []vas.Point{
		{X: 1000, Y: 1000}, {X: 1001, Y: 1001}, {X: 1002, Y: 1002},
		{X: 1003, Y: 1003}, {X: 1004, Y: 1004},
	}
	if err := cat.Append("gps", pts); err != nil {
		t.Fatal(err)
	}
	// Catalog-API delete: takes 1000 and 1001.
	n, err := cat.DeleteWhere("gps", rectPreds(vas.Rect{MinX: 999.5, MinY: 999.5, MaxX: 1001.5, MaxY: 1001.5}))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("DeleteWhere removed %d rows, want 2", n)
	}
	// HTTP delete: takes 1003.
	srv := httptest.NewServer(cat.Handler())
	resp, err := http.Post(srv.URL+"/v1/delete/gps", "application/json",
		strings.NewReader(`{"rect": {"minX": 1002.5, "minY": 1002.5, "maxX": 1003.5, "maxY": 1003.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	var dres struct {
		Deleted int `json:"deleted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if resp.StatusCode != http.StatusOK || dres.Deleted != 1 {
		t.Fatalf("HTTP delete: status %d, deleted %d, want 200/1", resp.StatusCode, dres.Deleted)
	}
	// Appended AFTER the delete, inside the deleted rectangle: replay
	// order decides whether this row lives. It must.
	if err := cat.Append("gps", []vas.Point{{X: 1000.25, Y: 1000.25}}); err != nil {
		t.Fatal(err)
	}

	want := query(t, cat, "gps", "exact=true&"+viewport(probe))
	if len(want.Points) != 3 { // 1002, 1004, and the post-delete 1000.25
		t.Fatalf("pre-restart probe sees %d points, want 3: %v", len(want.Points), want.Points)
	}
	wantFull := query(t, cat, "gps", "exact=true")

	// "Restart": replay base + tail into a fresh catalog.
	restored := vas.NewCatalog()
	if err := restored.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	got := query(t, restored, "gps", "exact=true&"+viewport(probe))
	if len(got.Points) != len(want.Points) {
		t.Fatalf("restored probe sees %d points, want %d: %v", len(got.Points), len(want.Points), got.Points)
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("restored point %d = %v, want %v", i, got.Points[i], want.Points[i])
		}
	}
	gotFull := query(t, restored, "gps", "exact=true")
	if len(gotFull.Points) != len(wantFull.Points) {
		t.Fatalf("restored full extent = %d points, want %d", len(gotFull.Points), len(wantFull.Points))
	}

	// Union queries answer the same against the restored catalog: two
	// disjoint viewports, as repeated rect parameters of an exact
	// /v1/query, pinned against their single-viewport answers.
	rsrv := httptest.NewServer(restored.Handler())
	defer rsrv.Close()
	count := func(rects ...vas.Rect) int {
		url := rsrv.URL + "/v1/query?table=gps&exact=true"
		for _, r := range rects {
			url += fmt.Sprintf("&rect=%g:%g:%g:%g", r.MinX, r.MinY, r.MaxX, r.MaxY)
		}
		var q struct {
			Points [][2]float64 `json:"points"`
		}
		if resp := getJSON(t, url, &q); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		return len(q.Points)
	}
	r1 := vas.Rect{MinX: 999, MinY: 999, MaxX: 1002.5, MaxY: 1002.5}
	r2 := vas.Rect{MinX: 1003.5, MinY: 1003.5, MaxX: 1006, MaxY: 1006}
	if u, a, b := count(r1, r2), count(r1), count(r2); u != a+b || a != 2 || b != 1 {
		t.Fatalf("union = %d points, singles = %d + %d, want 2 + 1", u, a, b)
	}

	// A full save folds tombstones and appends into the base file and
	// removes the tail; a second restart needs no replay and serves the
	// same rows.
	if err := restored.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, vas.TailFile)); !os.IsNotExist(err) {
		t.Fatal("full save left the tail log behind")
	}
	again := vas.NewCatalog()
	if err := again.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	got2 := query(t, again, "gps", "exact=true&"+viewport(probe))
	if len(got2.Points) != len(want.Points) {
		t.Fatalf("after fold + reload: %d points, want %d", len(got2.Points), len(want.Points))
	}
}

// TestDeleteDurabilityDegradation mirrors the append degradation
// contract for deletes: with a broken tail log the rows still vanish
// from serving, the error is surfaced, and SnapshotErr flips.
func TestDeleteDurabilityDegradation(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 2000, Seed: 31})
	cat := newSnapshotCatalog(t, d)
	dir := t.TempDir()
	t.Cleanup(cat.WaitBackground)
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := cat.Append("gps", []vas.Point{{X: 1000, Y: 1000}}); err != nil {
		t.Fatal(err)
	}
	// Break the log the same way the append degradation test does.
	if err := os.RemoveAll(filepath.Join(dir, vas.TailFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, vas.TailFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, vas.TailFile, "block"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := cat.DeleteWhere("gps", rectPreds(vas.Rect{MinX: 999, MinY: 999, MaxX: 1001, MaxY: 1001}))
	if err == nil {
		t.Fatal("delete with a broken tail log reported durable success")
	}
	if n != 1 {
		t.Fatalf("degraded delete tombstoned %d rows, want 1", n)
	}
	if cat.SnapshotErr() == nil {
		t.Fatal("degradation not recorded")
	}
	// The delete is live regardless.
	got := query(t, cat, "gps", "exact=true&"+viewport(vas.Rect{MinX: 999, MinY: 999, MaxX: 1001, MaxY: 1001}))
	if len(got.Points) != 0 {
		t.Fatalf("deleted row still serving under degradation: %d points", len(got.Points))
	}
	// A delete that matches nothing must NOT touch the broken log (a
	// no-op is not worth a durability error).
	if _, err := cat.DeleteWhere("gps", rectPreds(vas.Rect{MinX: 5000, MinY: 5000, MaxX: 5001, MaxY: 5001})); err != nil {
		t.Fatalf("no-op delete reported an error: %v", err)
	}
}

// rectPreds spells the rectangle r as the x and y range predicates a
// rectangle delete takes.
func rectPreds(r vas.Rect) []vas.Pred {
	return []vas.Pred{
		{Column: "x", Min: r.MinX, Max: r.MaxX},
		{Column: "y", Min: r.MinY, Max: r.MaxY},
	}
}
