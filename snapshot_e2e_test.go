package vas_test

// End-to-end tests of catalog persistence (ISSUE 4 acceptance): a
// catalog saved with SaveSnapshot and restored with LoadSnapshot into a
// fresh process must serve queries and tiles byte-identical to the
// rebuilt original with zero BuildSamples/index-build work, stale or
// corrupt snapshots must be detected, and /metrics must report which
// cold-start path was taken.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/snapshot"

	vas "repro"
)

// buildOpts are the sample-build options both sides of the snapshot
// comparison use.
var snapBuildSizes = []int{50, 200}

func snapBuildOpts() vas.Options { return vas.Options{Passes: 1} }

// newSnapshotCatalog builds the original (rebuilt-from-scratch) catalog.
func newSnapshotCatalog(t *testing.T, d *dataset.Dataset) *vas.Catalog {
	t.Helper()
	cat := vas.NewCatalog()
	if err := cat.LoadTable("gps", d.Points); err != nil {
		t.Fatal(err)
	}
	if err := cat.BuildSamples("gps", d.Points, snapBuildSizes, true, snapBuildOpts()); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestSnapshotServesByteIdentical(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 4000, Seed: 7})
	orig := newSnapshotCatalog(t, d)
	dir := t.TempDir()
	if err := orig.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	loaded := vas.NewCatalog()
	if err := loaded.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if !loaded.SnapshotFresh("gps", d.Points, snapBuildSizes, true, snapBuildOpts()) {
		t.Fatal("freshly saved snapshot reports stale")
	}
	// Staleness must be detected for changed data, sizes, or options.
	if loaded.SnapshotFresh("gps", d.Points[:len(d.Points)-1], snapBuildSizes, true, snapBuildOpts()) {
		t.Fatal("snapshot fresh despite different data")
	}
	if loaded.SnapshotFresh("gps", d.Points, []int{50}, true, snapBuildOpts()) {
		t.Fatal("snapshot fresh despite different sample sizes")
	}
	if loaded.SnapshotFresh("gps", d.Points, snapBuildSizes, false, snapBuildOpts()) {
		t.Fatal("snapshot fresh despite different density option")
	}
	if loaded.SnapshotFresh("gps", d.Points, snapBuildSizes, true, vas.Options{Passes: 2}) {
		t.Fatal("snapshot fresh despite different passes")
	}

	// Catalog-level queries: identical points, counts, sample choice,
	// and scan statistics across viewports, budgets, and filters.
	bounds := d.Bounds()
	zoomed, err := vas.Zoom(bounds, bounds.Center(), 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		viewport vas.Rect
		filters  []vas.Pred
		budget   time.Duration
	}{
		{"full extent", vas.Rect{}, nil, 0},
		{"zoomed", zoomed, nil, 0},
		{"tight budget", zoomed, nil, 1600 * time.Millisecond},
		{"filtered", zoomed, []vas.Pred{{Column: "density", Min: 2, Max: 1e18}}, 0},
	}
	for _, tc := range cases {
		want, err := orig.QueryFiltered("gps", tc.viewport, tc.filters, tc.budget)
		if err != nil {
			t.Fatalf("%s: original: %v", tc.name, err)
		}
		got, err := loaded.QueryFiltered("gps", tc.viewport, tc.filters, tc.budget)
		if err != nil {
			t.Fatalf("%s: loaded: %v", tc.name, err)
		}
		if got.SampleSize != want.SampleSize {
			t.Fatalf("%s: sample size %d vs %d", tc.name, got.SampleSize, want.SampleSize)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("%s: %d points vs %d", tc.name, len(got.Points), len(want.Points))
		}
		for i := range want.Points {
			if got.Points[i] != want.Points[i] {
				t.Fatalf("%s: point %d: %v vs %v", tc.name, i, got.Points[i], want.Points[i])
			}
		}
		if len(got.Counts) != len(want.Counts) {
			t.Fatalf("%s: %d counts vs %d", tc.name, len(got.Counts), len(want.Counts))
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("%s: count %d: %v vs %v", tc.name, i, got.Counts[i], want.Counts[i])
			}
		}
		if got.Scan != want.Scan {
			t.Fatalf("%s: scan stats %+v vs %+v", tc.name, got.Scan, want.Scan)
		}
	}

	// HTTP layer: tile bytes from the loaded catalog must be identical
	// to the original's (same sample resolution, same pixels).
	origSrv := httptest.NewServer(orig.Handler())
	defer origSrv.Close()
	loadedSrv := httptest.NewServer(loaded.Handler())
	defer loadedSrv.Close()
	for _, path := range []string{
		"/v1/tile/gps/0/0/0.png",
		"/v1/tile/gps/2/1/1.png?size=128",
		"/v1/tile/gps/1/0/1.png?budget=30s",
	} {
		a := fetchBytes(t, origSrv.URL+path)
		b := fetchBytes(t, loadedSrv.URL+path)
		if !bytes.Equal(a, b) {
			t.Fatalf("tile %s differs between rebuilt and snapshot-loaded catalogs (%d vs %d bytes)",
				path, len(a), len(b))
		}
	}
	// So are /v1/query bodies, but for the wall-clock planMillis.
	planMillis := regexp.MustCompile(`"planMillis":[^,]*,`)
	for _, path := range []string{
		"/v1/query?table=gps&budget=30s",
		"/v1/query?table=gps&exact=true&filter=x:116.3:",
	} {
		a := planMillis.ReplaceAll(fetchBytes(t, origSrv.URL+path), nil)
		b := planMillis.ReplaceAll(fetchBytes(t, loadedSrv.URL+path), nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between rebuilt and snapshot-loaded catalogs:\n%s\n%s", path, a, b)
		}
	}

	// Live ingest between save and restart lands in the tail log; each
	// restart replays it, deletes included, with no rebuild.
	body := postBytes(t, origSrv.URL+"/v1/append/gps", `{"points": [[500,500],[501,501],[502,502]]}`)
	if !bytes.Contains(body, []byte(`"appended":3`)) {
		t.Fatalf("append answered %s", body)
	}
	metrics := string(fetchBytes(t, origSrv.URL+"/metrics"))
	for _, want := range []string{
		"vasserve_ingest_rows_total 3",
		`vasserve_job_duration_seconds_count{job="snapshot_save"}`,
		`vasserve_job_duration_seconds_count{job="tail_write"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics after append lack %q", want)
		}
	}
	n := len(d.Points)
	restart := func() *httptest.Server {
		t.Helper()
		cat := vas.NewCatalog()
		if err := cat.LoadSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(cat.Handler())
		t.Cleanup(srv.Close)
		return srv
	}
	rowsOf := func(srv *httptest.Server) (rows, live int) {
		t.Helper()
		var out struct {
			Tables []struct {
				Name     string `json:"name"`
				Rows     int    `json:"rows"`
				LiveRows int    `json:"liveRows"`
			} `json:"tables"`
		}
		if err := json.Unmarshal(fetchBytes(t, srv.URL+"/v1/tables"), &out); err != nil {
			t.Fatal(err)
		}
		for _, ti := range out.Tables {
			if ti.Name == "gps" {
				return ti.Rows, ti.LiveRows
			}
		}
		t.Fatal("gps missing from /v1/tables")
		return 0, 0
	}
	second := restart()
	if rows, live := rowsOf(second); rows != n+3 || live != n+3 {
		t.Fatalf("after restart: rows %d, live %d; want %d appended rows replayed", rows, live, n+3)
	}
	if m := string(fetchBytes(t, second.URL+"/metrics")); !strings.Contains(m, `vasserve_store_table_tail_rows{table="gps"} 3`) {
		t.Error("replayed tail is not reported as 3 tail rows")
	}
	body = postBytes(t, second.URL+"/v1/delete/gps", `{"rect": {"minX": 500.5, "minY": 500.5, "maxX": 501.5, "maxY": 501.5}}`)
	if want := fmt.Sprintf(`{"deleted":1,"rows":%d}`, n+2); strings.TrimSpace(string(body)) != want {
		t.Fatalf("delete answered %s, want %s", body, want)
	}
	if rows, live := rowsOf(restart()); rows != n+3 || live != n+2 {
		t.Fatalf("after second restart: rows %d, live %d; want %d, %d", rows, live, n+3, n+2)
	}
}

func postBytes(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", url, resp.StatusCode, out)
	}
	return out
}

func fetchBytes(t *testing.T, url string) []byte {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func TestLoadSnapshotRejectsCorruptionAndKeepsServing(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 3000, Seed: 11})
	cat := newSnapshotCatalog(t, d)
	dir := t.TempDir()
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, vas.SnapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	before, err := cat.Query("gps", vas.Rect{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	mutants := map[string][]byte{
		"truncated":  data[:len(data)/2],
		"bit-flip":   flipByte(data, len(data)/3),
		"bad magic":  flipByte(data, 0),
		"empty file": {},
	}
	for name, mutant := range mutants {
		if err := os.WriteFile(path, mutant, 0o644); err != nil {
			t.Fatal(err)
		}
		// Into a fresh catalog: must fail and leave it empty.
		fresh := vas.NewCatalog()
		if err := fresh.LoadSnapshot(dir); err == nil {
			t.Fatalf("%s snapshot was accepted", name)
		}
		if _, err := fresh.Query("gps", vas.Rect{}, 0); err == nil {
			t.Fatalf("%s: partial state was published into a fresh catalog", name)
		}
		// Into the live catalog: must fail and leave it serving as before.
		if err := cat.LoadSnapshot(dir); err == nil {
			t.Fatalf("%s snapshot was accepted by a live catalog", name)
		}
		after, err := cat.Query("gps", vas.Rect{}, 0)
		if err != nil {
			t.Fatalf("%s: live catalog stopped serving: %v", name, err)
		}
		if len(after.Points) != len(before.Points) || after.SampleSize != before.SampleSize {
			t.Fatalf("%s: live catalog changed after a failed load", name)
		}
	}

	// A file stamped with an older format version is version skew — the
	// typed cue vasserve rebuilds on — not data, and the live catalog
	// keeps serving what it had.
	old := append([]byte(nil), data...)
	old[4] = 3 // format version field, little-endian low byte
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cat.LoadSnapshot(dir); !errors.Is(err, snapshot.ErrVersionSkew) {
		t.Fatalf("v3-stamped snapshot: err %v, want ErrVersionSkew", err)
	}
	after, err := cat.Query("gps", vas.Rect{}, 0)
	if err != nil {
		t.Fatalf("v3-stamped snapshot: live catalog stopped serving: %v", err)
	}
	if len(after.Points) != len(before.Points) || after.SampleSize != before.SampleSize {
		t.Fatal("v3-stamped snapshot: live catalog changed after a failed load")
	}

	// A missing snapshot directory is a plain error, not a panic.
	if err := vas.NewCatalog().LoadSnapshot(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("missing snapshot dir was accepted")
	}
}

func flipByte(data []byte, pos int) []byte {
	out := append([]byte(nil), data...)
	out[pos] ^= 0x40
	return out
}

// TestRegisterSampleSnapshot covers the vasgen offline-producer path: a
// sample built once with vas.Build is registered as-is (no second
// Interchange run), snapshotted, and restored into a serving catalog.
func TestRegisterSampleSnapshot(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 3000, Seed: 5})
	s, err := vas.Build(d.Points, vas.Options{K: 150, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.DensityEmbed(d.Points)
	if err != nil {
		t.Fatal(err)
	}
	cat := vas.NewCatalog()
	if err := cat.LoadTable("data", d.Points); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterSample("data", s, ws.Counts); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterSample("data", nil, nil); err == nil {
		t.Fatal("nil sample was accepted")
	}
	if err := cat.RegisterSample("data", s, ws.Counts[:1]); err == nil {
		t.Fatal("mismatched counts were accepted")
	}
	dir := t.TempDir()
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	loaded := vas.NewCatalog()
	if err := loaded.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Query("data", vas.Rect{}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize != 150 || len(res.Points) != 150 {
		t.Fatalf("restored catalog served %d points from a %d-sample", len(res.Points), res.SampleSize)
	}
	if len(res.Counts) != 150 {
		t.Fatalf("density embedding lost: %d counts", len(res.Counts))
	}
	for i, p := range s.Points {
		if res.Points[i] != p {
			t.Fatalf("point %d diverged from the registered sample", i)
		}
	}
	// Registered catalogs are not "fresh" in BuildSamples terms — their
	// provenance records the registration, not a rebuildable spec.
	if loaded.SnapshotFresh("data", d.Points, []int{150}, true, vas.Options{Passes: 1}) {
		t.Fatal("registered catalog claims BuildSamples freshness")
	}
}

// TestIncrementalSnapshotRefresh is the live-ingest persistence e2e
// (ISSUE 5 acceptance): batches appended to a snapshot-bound catalog —
// through the API and through POST /v1/append — land in the tail log,
// and a restart restores base + tail with no sample or index rebuild:
// same sample set, appended rows visible, provenance still fresh for
// the ORIGINAL data (appends must not invalidate it wholesale). A
// subsequent full save folds the tail into the base file and truncates
// the log.
func TestIncrementalSnapshotRefresh(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 3000, Seed: 21})
	cat := newSnapshotCatalog(t, d)
	dir := t.TempDir()
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	// Ingest while serving: one batch through the catalog API, one
	// through the HTTP endpoint.
	if err := cat.Append("gps", []vas.Point{vas.Pt(1000, 1000), vas.Pt(1001, 1001)}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cat.Handler())
	resp, err := http.Post(srv.URL+"/v1/append/gps", "application/json",
		strings.NewReader(`{"points": [[1002, 1002], [1003, 1003], [1004, 1004]]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	srv.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/append: %d: %s", resp.StatusCode, body)
	}
	if _, err := os.Stat(filepath.Join(dir, vas.TailFile)); err != nil {
		t.Fatalf("appends left no tail log: %v", err)
	}

	// "Restart": a fresh catalog restored from the same directory.
	restored := vas.NewCatalog()
	if err := restored.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	// The base data's provenance is untouched by appends: the snapshot
	// still reads as fresh for the original dataset, so a server using
	// the stock load-or-rebuild decision serves it without rebuilding.
	if !restored.SnapshotFresh("gps", d.Points, snapBuildSizes, true, snapBuildOpts()) {
		t.Fatal("appends invalidated the base provenance wholesale")
	}
	// Every appended row must have survived the restart, visible to an
	// exact query and answered as an index probe (the replayed tail
	// sits in delta buckets, not an unindexed linear tail).
	got, err := restored.QueryExact("gps", vas.Rect{MinX: 999, MinY: 999, MaxX: 1005, MaxY: 1005})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 5 {
		t.Fatalf("restored catalog sees %d appended rows, want 5", len(got.Points))
	}
	if !got.Scan.IndexProbe || got.Scan.DeltaRows == 0 {
		t.Fatalf("replayed tail not served from the delta index: %+v", got.Scan)
	}
	// Sampled answers must match the pre-restart catalog's (no rebuild,
	// same samples byte for byte).
	want, err := cat.Query("gps", vas.Rect{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := restored.Query("gps", vas.Rect{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Points) != len(want.Points) || after.SampleSize != want.SampleSize {
		t.Fatalf("restored sample answer diverged: %d/%d points, sample %d/%d",
			len(after.Points), len(want.Points), after.SampleSize, want.SampleSize)
	}

	// A full save folds the tail into the base and truncates the log;
	// a second restart then needs no replay and still has every row.
	if err := restored.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, vas.TailFile)); !os.IsNotExist(err) {
		t.Fatal("full save left the folded tail log behind")
	}
	again := vas.NewCatalog()
	if err := again.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	got2, err := again.QueryExact("gps", vas.Rect{MinX: 999, MinY: 999, MaxX: 1005, MaxY: 1005})
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Points) != 5 {
		t.Fatalf("after fold + reload: %d appended rows, want 5", len(got2.Points))
	}
}

// TestAppendDurabilityDegradation pins the tail-log failure contract:
// when the log cannot be written, the rows still go live and serve, the
// error is surfaced (and sticky — later appends stop touching the
// broken log), and a successful full save heals the catalog.
func TestAppendDurabilityDegradation(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 2000, Seed: 29})
	cat := newSnapshotCatalog(t, d)
	dir := t.TempDir()
	// Drain the background re-save before TempDir cleanup removes the
	// snapshot directory out from under it.
	t.Cleanup(cat.WaitBackground)
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	// Break the log: a non-empty directory where the tail file should
	// be makes every append's tail write fail — and the background
	// re-save retry too (it cannot truncate the "log"), so the
	// degradation deterministically persists until the test heals it.
	if err := os.Mkdir(filepath.Join(dir, vas.TailFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, vas.TailFile, "block"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cat.Append("gps", []vas.Point{vas.Pt(1, 2)})
	if err == nil {
		t.Fatal("append with a broken tail log reported success")
	}
	if cat.SnapshotErr() == nil {
		t.Fatal("degradation not recorded")
	}
	// The rows are live regardless.
	got, qerr := cat.QueryExact("gps", vas.Rect{MinX: 0.5, MinY: 1.5, MaxX: 1.5, MaxY: 2.5})
	if qerr != nil {
		t.Fatal(qerr)
	}
	if len(got.Points) != 1 {
		t.Fatalf("appended row not serving under degradation: %d points", len(got.Points))
	}
	// Later appends keep reporting the degradation without touching the
	// broken log.
	if err := cat.Append("gps", []vas.Point{vas.Pt(3, 4)}); err == nil {
		t.Fatal("degraded catalog reported a durable append")
	}
	// The failed appends kicked off a background re-save; let its (also
	// failing) attempt settle before healing, so it cannot re-mark the
	// catalog degraded after the save below cleared it.
	cat.WaitBackground()
	// A successful full save folds the live rows in and heals.
	if err := os.RemoveAll(filepath.Join(dir, vas.TailFile)); err != nil {
		t.Fatal(err)
	}
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if cat.SnapshotErr() != nil {
		t.Fatalf("degradation survived a successful save: %v", cat.SnapshotErr())
	}
	restored := vas.NewCatalog()
	if err := restored.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	got2, err := restored.QueryExact("gps", vas.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Points) != 2 {
		t.Fatalf("healed snapshot lost rows appended under degradation: %d points", len(got2.Points))
	}
	if err := cat.Append("gps", []vas.Point{vas.Pt(5, 6)}); err != nil {
		t.Fatalf("append after healing still failing: %v", err)
	}
}

// TestDurabilityFaultMatrix extends TestAppendDurabilityDegradation
// (which covers one write error against a broken directory) with the
// scripted fault matrix from internal/fault: sync failure, rename
// failure, and ENOSPC on both the tail-append and snapshot-save paths.
// Each fault must surface as a typed, wrapped error, cost zero
// availability, and heal on the next successful save — with a restart
// always observing a consistent state.
func TestDurabilityFaultMatrix(t *testing.T) {
	tailCases := []struct {
		name   string
		arm    func(inj *fault.Injector)
		target error
	}{
		{"tail write ENOSPC", func(i *fault.Injector) { i.FailOnce(fault.OpWrite, "catalog.tail", syscall.ENOSPC) }, syscall.ENOSPC},
		{"tail sync failure", func(i *fault.Injector) { i.FailOnce(fault.OpSync, "catalog.tail", nil) }, fault.ErrInjected},
	}
	for _, tc := range tailCases {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 1500, Seed: 29})
			cat := newSnapshotCatalog(t, d)
			dir := t.TempDir()
			if err := cat.SaveSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			inj := fault.NewInjector(nil)
			tc.arm(inj)
			restore := snapshot.SetFS(inj)
			err := cat.Append("gps", []vas.Point{vas.Pt(1, 2)})
			if err == nil {
				t.Fatal("append with a faulted tail log reported success")
			}
			if !errors.Is(err, tc.target) {
				t.Fatalf("append error lost the cause: %v, want errors.Is(%v)", err, tc.target)
			}
			// The rows are live regardless: degraded durability, full
			// availability.
			got, qerr := cat.QueryExact("gps", vas.Rect{MinX: 0.5, MinY: 1.5, MaxX: 1.5, MaxY: 2.5})
			if qerr != nil {
				t.Fatal(qerr)
			}
			if len(got.Points) != 1 {
				t.Fatalf("appended row not serving under the fault: %d points", len(got.Points))
			}
			// The failed append kicked a background re-save; the one-shot
			// fault is spent, so it succeeds, folds the live rows in, and
			// heals the catalog.
			cat.WaitBackground()
			restore()
			if err := cat.SnapshotErr(); err != nil {
				t.Fatalf("degradation survived the successful re-save: %v", err)
			}
			restored := vas.NewCatalog()
			if err := restored.LoadSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			got2, err := restored.QueryExact("gps", vas.Rect{MinX: 0.5, MinY: 1.5, MaxX: 1.5, MaxY: 2.5})
			if err != nil {
				t.Fatal(err)
			}
			if len(got2.Points) != 1 {
				t.Fatalf("healed snapshot lost the row appended under the fault: %d points", len(got2.Points))
			}
		})
	}

	saveCases := []struct {
		name   string
		arm    func(inj *fault.Injector)
		target error
	}{
		{"save write ENOSPC", func(i *fault.Injector) { i.FailOnce(fault.OpWrite, ".snapshot-", syscall.ENOSPC) }, syscall.ENOSPC},
		{"save sync ENOSPC", func(i *fault.Injector) { i.FailOnce(fault.OpSync, ".snapshot-", syscall.ENOSPC) }, syscall.ENOSPC},
		{"save rename failure", func(i *fault.Injector) { i.FailOnce(fault.OpRename, vas.SnapshotFile, nil) }, fault.ErrInjected},
	}
	for _, tc := range saveCases {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 1500, Seed: 31})
			cat := newSnapshotCatalog(t, d)
			dir := t.TempDir()
			t.Cleanup(cat.WaitBackground)
			if err := cat.SaveSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			// A durable append before the fault: the failed save must not
			// disturb the base + tail pair it could not replace.
			if err := cat.Append("gps", []vas.Point{vas.Pt(1, 2)}); err != nil {
				t.Fatal(err)
			}
			inj := fault.NewInjector(nil)
			tc.arm(inj)
			restore := snapshot.SetFS(inj)
			err := cat.SaveSnapshot(dir)
			restore()
			if err == nil {
				t.Fatal("faulted save reported success")
			}
			if !errors.Is(err, tc.target) {
				t.Fatalf("save error lost the cause: %v, want errors.Is(%v)", err, tc.target)
			}
			// Atomicity: the failed save left no temp litter and did not
			// touch the previous snapshot or the tail.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 2 {
				names := make([]string, len(entries))
				for i, e := range entries {
					names[i] = e.Name()
				}
				t.Fatalf("failed save left the directory as %v", names)
			}
			restored := vas.NewCatalog()
			if err := restored.LoadSnapshot(dir); err != nil {
				t.Fatalf("snapshot unusable after a failed save: %v", err)
			}
			got, err := restored.QueryExact("gps", vas.Rect{MinX: 0.5, MinY: 1.5, MaxX: 1.5, MaxY: 2.5})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Points) != 1 {
				t.Fatalf("restart after failed save lost the durable append: %d points", len(got.Points))
			}
			// The fault is spent: a retry folds everything and removes the
			// tail.
			if err := cat.SaveSnapshot(dir); err != nil {
				t.Fatalf("save retry after the fault: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, vas.TailFile)); !os.IsNotExist(err) {
				t.Fatal("successful retry left the folded tail log behind")
			}
		})
	}
}

// TestTailReplayValidation pins the all-or-nothing load contract for
// the tail log: a tail that cannot replay (unknown table) fails the
// whole load and leaves the catalog unpublished.
func TestTailReplayValidation(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 2000, Seed: 23})
	cat := newSnapshotCatalog(t, d)
	dir := t.TempDir()
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := cat.Append("ghost", []vas.Point{vas.Pt(1, 2)}); err == nil {
		t.Fatal("append to a missing table was accepted")
	}
	// Forge a tail record for a table the snapshot does not carry.
	if err := snapshotAppendTail(dir, "ghost"); err != nil {
		t.Fatal(err)
	}
	fresh := vas.NewCatalog()
	if err := fresh.LoadSnapshot(dir); err == nil {
		t.Fatal("tail targeting an unknown table was accepted")
	}
	if _, err := fresh.Query("gps", vas.Rect{}, 0); err == nil {
		t.Fatal("partial catalog was published despite the bad tail")
	}
}

// snapshotAppendTail writes a syntactically valid tail record for an
// arbitrary table name next to the snapshot, via the public Append path
// of a throwaway catalog pointed at the same directory layout.
func snapshotAppendTail(dir, table string) error {
	// The tail format is internal; reuse it through a scratch catalog
	// that has the target table, then move its log into place.
	scratch := vas.NewCatalog()
	pts := []vas.Point{vas.Pt(5, 6)}
	if err := scratch.LoadTable(table, pts); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "tail")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := scratch.SaveSnapshot(tmp); err != nil {
		return err
	}
	if err := scratch.Append(table, pts); err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(tmp, vas.TailFile))
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, vas.TailFile), data, 0o644)
}

func TestMetricsReportColdStart(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 2000, Seed: 3})
	cat := newSnapshotCatalog(t, d)
	dir := t.TempDir()
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	loaded := vas.NewCatalog()
	start := time.Now()
	if err := loaded.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded.RecordColdStart("snapshot", time.Since(start))
	srv := httptest.NewServer(loaded.Handler())
	defer srv.Close()
	metrics := string(fetchBytes(t, srv.URL+"/metrics"))
	if !strings.Contains(metrics, `vasserve_coldstart_seconds{source="snapshot"}`) {
		t.Fatalf("metrics lack the snapshot cold-start line:\n%s", metrics)
	}

	// RecordColdStart after the handler exists must also land.
	cat.RecordColdStart("rebuild", 123*time.Millisecond)
	srv2 := httptest.NewServer(cat.Handler())
	defer srv2.Close()
	cat.RecordColdStart("rebuild", 456*time.Millisecond)
	metrics2 := string(fetchBytes(t, srv2.URL+"/metrics"))
	if !strings.Contains(metrics2, `vasserve_coldstart_seconds{source="rebuild"} 0.456`) {
		t.Fatalf("metrics lack the rebuild cold-start line:\n%s", metrics2)
	}
}
