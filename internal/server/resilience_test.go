package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/store"
)

// newResilienceServer is newTestServer with a caller-chosen Config: the
// same 400-point diagonal table and one 20-point sample, so every heavy
// route works.
func newResilienceServer(t *testing.T, cfg Config) *Server {
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
	pts := make([]geom.Point, 20)
	for i := range pts {
		pts[i] = geom.Pt(float64(i*20), float64(i*20))
	}
	if err := query.LoadSample(st, "base_vas_20", store.SampleMeta{
		Source: "base", Method: "vas", XCol: "x", YCol: "y",
	}, pts, nil); err != nil {
		t.Fatal(err)
	}
	return newServer(st, cfg)
}

// postAppend fires one append request and reports its recorder.
func postAppend(s *Server) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/append/base", strings.NewReader(`{"points":[[1,2]]}`))
	req.Header.Set("Content-Type", "application/json")
	s.ServeHTTP(rec, req)
	return rec
}

// TestAdmissionShedCapacity pins the overflow half of admission
// control: with one in-flight slot and no queue, a second concurrent
// request on the same route is shed immediately with 503 + Retry-After
// and counted in vasserve_requests_shed_total — while exempt routes
// (healthz, metrics) keep answering.
func TestAdmissionShedCapacity(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s := newResilienceServer(t, Config{
		MaxInFlight: 1,
		AppendHook: func(table string, cols [][]float64) (int, error) {
			close(entered)
			<-release
			return len(cols[0]), nil
		},
	})
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { firstDone <- postAppend(s) }()
	<-entered

	// The slot is held: the next append on the route is shed, not queued.
	rec := postAppend(s)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated append = %d, want 503; body %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if !strings.Contains(rec.Body.String(), shedReasonCapacity) {
		t.Fatalf("shed body lacks the reason: %s", rec.Body)
	}
	// Exempt routes are untouched by a saturated heavy route.
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz under saturation = %d", rec.Code)
	}

	close(release)
	if first := <-firstDone; first.Code != http.StatusOK {
		t.Fatalf("held request = %d, want 200; body %s", first.Code, first.Body)
	}
	// Exactly one rejection on the append route, none elsewhere.
	metrics := get(t, s, "/metrics").Body.String()
	if !strings.Contains(metrics, `vasserve_requests_shed_total{route="append",reason="capacity"} 1`) {
		t.Fatalf("metrics lack the shed counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, `vasserve_requests_shed_total{route="query",reason="capacity"} 0`) {
		t.Fatalf("unsaturated route counted a shed:\n%s", metrics)
	}
}

// TestAdmissionQueueTimeout pins the bounded-wait half: a request that
// fits the queue but never gets a slot within QueueTimeout is shed with
// 429 + Retry-After and its own shed reason.
func TestAdmissionQueueTimeout(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s := newResilienceServer(t, Config{
		MaxInFlight:  1,
		QueueDepth:   1,
		QueueTimeout: 25 * time.Millisecond,
		AppendHook: func(table string, cols [][]float64) (int, error) {
			close(entered)
			<-release
			return len(cols[0]), nil
		},
	})
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { firstDone <- postAppend(s) }()
	<-entered
	defer func() {
		close(release)
		<-firstDone
	}()

	rec := postAppend(s)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-timeout append = %d, want 429; body %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("queue-timeout response missing Retry-After")
	}
	if !strings.Contains(rec.Body.String(), shedReasonQueueTimeout) {
		t.Fatalf("shed body lacks the reason: %s", rec.Body)
	}
	metrics := get(t, s, "/metrics").Body.String()
	if !strings.Contains(metrics, `vasserve_requests_shed_total{route="append",reason="queue_timeout"} 1`) {
		t.Fatalf("metrics lack the queue-timeout counter:\n%s", metrics)
	}
}

// TestRequestTimeoutTaxonomy: with RequestTimeout armed, a heavy-route
// request whose deadline expires answers 503 + Retry-After (the
// deadline propagated through the scan kernels, not a hung handler)
// and increments vasserve_request_timeouts_total for the route.
func TestRequestTimeoutTaxonomy(t *testing.T) {
	s := newResilienceServer(t, Config{RequestTimeout: time.Nanosecond})
	rec := get(t, s, "/v1/query?table=base&minx=1&miny=1&maxx=399&maxy=399")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired query = %d, want 503; body %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("deadline response missing Retry-After")
	}
	metrics := get(t, s, "/metrics").Body.String()
	if !strings.Contains(metrics, `vasserve_request_timeouts_total{route="query"} 1`) {
		t.Fatalf("metrics lack the timeout counter:\n%s", metrics)
	}
}

// TestHTTPErrorTaxonomy pins the error → status mapping the resilience
// layer depends on: deadline exhaustion is the server's fault (503,
// retryable), client disconnect is nobody's (499, non-standard but
// conventional), degraded-mode writes are 503 with Retry-After.
func TestHTTPErrorTaxonomy(t *testing.T) {
	cases := []struct {
		err        error
		status     int
		retryAfter bool
	}{
		{context.DeadlineExceeded, http.StatusServiceUnavailable, true},
		{fmt.Errorf("scan: %w", context.DeadlineExceeded), http.StatusServiceUnavailable, true},
		{context.Canceled, statusClientClosedRequest, false},
		{fmt.Errorf("append rejected (%w)", ErrDegraded), http.StatusServiceUnavailable, true},
		{fmt.Errorf("delete on %q: %w", "base_vas_20", ErrSampleTable), http.StatusConflict, false},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		httpError(rec, tc.err)
		if rec.Code != tc.status {
			t.Fatalf("httpError(%v) = %d, want %d", tc.err, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Fatalf("httpError(%v) Retry-After present = %t, want %t", tc.err, got, tc.retryAfter)
		}
	}
}
