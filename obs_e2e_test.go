package vas_test

// End-to-end tests of the observability surface (PR 6 acceptance): a
// deliberately slow filtered query must show up in /debug/slow with
// stage timings that approximately sum to its total, /metrics must
// expose real per-route latency histograms, tile responses must mirror
// the query scan statistics in X-Vas-* headers, and the
// vasserve_tail_log_degraded gauge must flip when the snapshot tail
// log starts failing writes.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"

	vas "repro"
)

func getBody(t *testing.T, url string) (*http.Response, string) {
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
	return resp, string(body)
}

func TestObsSlowQueryEndToEnd(t *testing.T) {
	// Record every trace: the test asserts structure, not slowness.
	_, _, ts := newServedCatalog(t, func(c *vas.Catalog) { c.SetSlowThreshold(-1) })

	// A filtered exact full-extent query is the heaviest request shape:
	// index probe + residual filtering + gather + JSON encode.
	resp, _ := getBody(t, ts.URL+"/v1/query?table=gps&exact=true&filter=x:0:200")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d", resp.StatusCode)
	}
	if _, body := getBody(t, ts.URL+"/v1/tile/gps/0/0/0.png?budget=1600ms&size=128"); body == "" {
		t.Fatal("empty tile body")
	}

	resp, body := getBody(t, ts.URL+"/debug/slow")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slow = %d", resp.StatusCode)
	}
	var report obs.SlowReport
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("bad /debug/slow JSON %q: %v", body, err)
	}
	var qt *obs.TraceReport
	for i := range report.Traces {
		if report.Traces[i].Route == "query" {
			qt = &report.Traces[i]
			break
		}
	}
	if qt == nil {
		t.Fatalf("no query trace kept: %+v", report.Traces)
	}
	if qt.Table != "gps" {
		t.Errorf("trace table = %q, want gps", qt.Table)
	}
	if qt.Scan == nil {
		t.Error("trace has no scan stats attached")
	}
	if len(qt.Stages) == 0 {
		t.Fatal("trace has no stage timings")
	}
	// Stages are disjoint wall-clock intervals, so their sum must stay
	// within the request total and — for a scan-and-encode-dominated
	// exact query — account for most of it. The 0.4 floor leaves room
	// for parse/transport overhead without letting the stages decouple
	// from the total.
	if qt.StagesMillis > qt.TotalMillis {
		t.Errorf("stage sum %.3fms exceeds total %.3fms", qt.StagesMillis, qt.TotalMillis)
	}
	if qt.StagesMillis < 0.4*qt.TotalMillis {
		t.Errorf("stage sum %.3fms accounts for <40%% of total %.3fms: %+v",
			qt.StagesMillis, qt.TotalMillis, qt.Stages)
	}
	if len(report.Tables) == 0 {
		t.Error("no per-table slow summary")
	}

	// The scrape surface: real per-route histograms, not just quantile
	// gauges.
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, route := range []string{"query", "tile"} {
		for _, want := range []string{
			`vasserve_request_latency_seconds_bucket{route="` + route + `",le="+Inf"}`,
			`vasserve_request_latency_seconds_sum{route="` + route + `"}`,
			`vasserve_request_latency_seconds_count{route="` + route + `"}`,
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
	if !strings.Contains(metrics, `vasserve_stage_duration_seconds_bucket{stage="gather"`) {
		t.Error("metrics missing per-stage duration histograms")
	}
}

func TestTailLogDegradedGaugeEndToEnd(t *testing.T) {
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: 2000, Seed: 31})
	cat := newSnapshotCatalog(t, d)
	dir := t.TempDir()
	// Drain the background re-save before TempDir cleanup removes the
	// snapshot directory out from under it.
	t.Cleanup(cat.WaitBackground)
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cat.Handler())
	t.Cleanup(ts.Close)

	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, `vasserve_tail_log_degraded{table="gps"} 0`) {
		t.Fatalf("healthy catalog should expose a zero degraded gauge:\n%s", body)
	}

	// Break the tail log the way the durability e2e test does: a
	// non-empty directory where the log file should be fails every
	// append's tail write.
	if err := os.Mkdir(filepath.Join(dir, vas.TailFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, vas.TailFile, "block"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cat.Append("gps", []vas.Point{{X: 1, Y: 2}}); err == nil {
		t.Fatal("append with a broken tail log reported success")
	}
	_, body = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, `vasserve_tail_log_degraded{table="gps"} 1`) {
		t.Fatalf("degraded tail log not reflected in metrics:\n%s", body)
	}

	// The failed append kicked off a background re-save; let its (also
	// failing) attempt settle before healing, so it cannot re-mark the
	// catalog degraded after the save below cleared it.
	cat.WaitBackground()

	// Healing (a successful full save) clears the gauge.
	if err := os.RemoveAll(filepath.Join(dir, vas.TailFile)); err != nil {
		t.Fatal(err)
	}
	if err := cat.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	_, body = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, `vasserve_tail_log_degraded{table="gps"} 0`) {
		t.Fatalf("healed catalog still reports degradation:\n%s", body)
	}
}
