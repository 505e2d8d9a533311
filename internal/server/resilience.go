package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// ErrDegraded marks a mutation rejected because the serving process is
// in read-only degraded mode: snapshot persistence is failing and the
// operator chose (vas.Catalog.SetReadOnlyOnDegrade / vasserve
// -read-only-on-degrade) to refuse writes it cannot make durable rather
// than accept them into memory only. The HTTP layer maps it to 503 with
// a Retry-After hint; clients should back off and retry — the mode
// clears itself the moment a background re-save succeeds.
//
// The sentinel lives here, not in the root vas package, because the
// catalog layer imports this package (never the reverse) and both sides
// need to agree on the error identity.
var ErrDegraded = errors.New("server: read-only (snapshot persistence degraded)")

// ErrSampleTable marks a mutation rejected because its table is a
// registered sample: samples are built offline from their base table
// (§II-D) and only read while serving. The HTTP layer maps it to 409.
var ErrSampleTable = errors.New("server: sample tables are read-only")

// statusClientClosedRequest is the de-facto standard status (nginx's
// 499) for requests abandoned by the client before the response was
// written. The client never sees it; it exists so metrics and logs can
// tell "we were too slow" (503 deadline) from "they hung up".
const statusClientClosedRequest = 499

// Shed reasons, the reason label values of
// vasserve_requests_shed_total.
const (
	shedReasonCapacity     = "capacity"      // in-flight cap reached and wait queue full
	shedReasonQueueTimeout = "queue_timeout" // queued, but no slot freed within QueueTimeout
)

// heavyRoutes are the routes admission control and the per-request
// deadline apply to: the ones that touch table data and can be slow or
// pile up. Probes (healthz), scrapes (metrics), and diagnostics stay
// exempt — shedding a liveness check under load turns an overload into
// a restart loop.
var heavyRoutes = map[string]bool{
	"query":   true,
	"nearest": true,
	"tile":    true,
	"append":  true,
	"delete":  true,
	"tables":  true,
}

// limiter is one route's admission gate: a fixed pool of in-flight
// tokens plus a bounded wait queue. Requests beyond the cap wait up to
// a deadline for a token; requests beyond cap+queue are shed
// immediately. All methods are safe for concurrent use.
type limiter struct {
	tokens  chan struct{}
	queued  atomic.Int64
	depth   int64
	timeout time.Duration
}

func newLimiter(inflight, depth int, timeout time.Duration) *limiter {
	if inflight <= 0 {
		return nil
	}
	if depth < 0 {
		depth = 0
	}
	return &limiter{
		tokens:  make(chan struct{}, inflight),
		depth:   int64(depth),
		timeout: timeout,
	}
}

// acquire admits the request (returning "") or sheds it (returning the
// reason). Admitted requests must release(). A context already canceled
// while queued sheds as a queue timeout — the slot it freed goes to a
// client still listening.
func (l *limiter) acquire(ctx context.Context) string {
	select {
	case l.tokens <- struct{}{}:
		return ""
	default:
	}
	// The pool is full. Join the bounded queue or shed on the spot.
	if l.queued.Add(1) > l.depth {
		l.queued.Add(-1)
		return shedReasonCapacity
	}
	defer l.queued.Add(-1)
	timer := time.NewTimer(l.timeout)
	defer timer.Stop()
	select {
	case l.tokens <- struct{}{}:
		return ""
	case <-timer.C:
		return shedReasonQueueTimeout
	case <-ctx.Done():
		return shedReasonQueueTimeout
	}
}

func (l *limiter) release() { <-l.tokens }

// retryAfterSeconds is the Retry-After hint sent with every shed or
// degraded response: long enough for a load spike to drain, short
// enough that clients re-probe a recovered server quickly.
func (s *Server) retryAfterSeconds() int {
	secs := int((s.cfg.QueueTimeout + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shed writes the rejection response for an admission-control shed:
// 503 for a full queue (the server is saturated — try another replica),
// 429 for a queue-wait timeout (it is merely busy — retry here after
// backing off). Both carry Retry-After.
func (s *Server) shed(w http.ResponseWriter, route, reason string) {
	s.metrics.recordShed(route, reason)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	status := http.StatusServiceUnavailable
	if reason == shedReasonQueueTimeout {
		status = http.StatusTooManyRequests
	}
	writeJSON(w, status, map[string]string{
		"error":  "overloaded: request shed (" + reason + ")",
		"reason": reason,
	})
}
