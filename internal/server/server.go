// Package server is the network-facing layer of the Fig. 3 architecture:
// it exposes the store + planner pair (the middleware role ScalaR plays in
// the paper's related work) over HTTP so visualization clients can ask
// for budget-bound point sets and pre-rendered map tiles.
//
// Routes:
//
//	GET /v1/tables                      catalog listing (tables + samples)
//	GET /v1/query                       budget-bound point query (JSON)
//	GET /v1/nearest                     k-nearest-neighbour query (JSON)
//	GET /v1/tile/{table}/{z}/{x}/{y}.png  rendered PNG tile
//	POST /v1/append/{table}             live row ingest (JSON batch)
//	POST /v1/delete/{table}             tombstone delete (rect and/or predicates)
//	GET /healthz                        liveness probe
//	GET /metrics                        Prometheus-style counters
//
// Tile serving is backed by a sharded LRU cache over encoded PNG bytes
// (internal/tilecache) with single-flight render deduplication; the cache
// key includes the sample table the latency budget resolves to, so the
// same tile address served under different budgets caches independently
// and never mixes samples.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/store"
	"repro/internal/tilecache"
)

type cacheStats = tilecache.Stats

// Serving constants no caller tunes.
const (
	// tileCacheBytes bounds the encoded-PNG tile cache.
	tileCacheBytes = tilecache.DefaultMaxBytes
	// defaultTileSize is the tile edge in pixels when the request does
	// not specify one; maxTileSize caps the per-request edge.
	defaultTileSize = 256
	maxTileSize     = 1024
	// xCol, yCol name the plotted column pair (the pair the vas.Catalog
	// façade loads).
	xCol, yCol = "x", "y"
	// maxAppendBytes caps the /v1/append and /v1/delete request bodies.
	maxAppendBytes = 64 << 20
	// slowLogSize is how many slow traces /debug/slow retains.
	slowLogSize = 64
)

// Config tunes a Server. The zero value picks production defaults.
type Config struct {
	// AppendHook is the server's only writer of appended rows
	// (required): POST /v1/append/{table} hands it the batch as
	// parallel column slices in schema order, and it returns the
	// number of rows appended. The catalog layer's hook also logs the
	// rows to its snapshot tail.
	AppendHook func(table string, cols [][]float64) (int, error)
	// DeleteHook is the server's only writer of deletes (required):
	// POST /v1/delete/{table} hands it the conjunctive predicates, and
	// it returns the number of rows newly deleted.
	DeleteHook func(table string, preds []store.Pred) (int, error)
	// SlowThreshold is the minimum total duration a request trace must
	// reach to enter the slow-query log at /debug/slow; 0 means 250ms,
	// negative means keep every trace.
	SlowThreshold time.Duration
	// TailStatus, when set, reports per-table snapshot-tail durability
	// for the vasserve_tail_log_degraded gauge — the catalog layer wires
	// its sticky SnapshotErr through here.
	TailStatus func() []TailStatus
	// RequestTimeout, when positive, bounds the handling of every
	// data-touching request (query, nearest, tile, append, delete,
	// tables): the request context is canceled at the deadline, the
	// engine's cooperative cancellation checks unwind the scan, and the
	// client gets 503 with Retry-After. Probe routes (healthz, metrics,
	// debug) are exempt. Zero means no deadline.
	RequestTimeout time.Duration
	// MaxInFlight, when positive, caps concurrently executing requests
	// PER data-touching route; excess requests join a bounded wait
	// queue of QueueDepth slots for up to QueueTimeout before being
	// shed (503 reason=capacity when the queue itself is full, 429
	// reason=queue_timeout when no slot freed in time; both carry
	// Retry-After and count in vasserve_requests_shed_total). Zero
	// admits everything.
	MaxInFlight int
	// QueueDepth is the wait-queue length behind MaxInFlight; 0 means
	// no queue (immediate shed once the cap is reached).
	QueueDepth int
	// QueueTimeout is how long a queued request waits for an in-flight
	// slot; 0 means 250ms.
	QueueTimeout time.Duration
}

func (c Config) withDefaults() Config {
	switch {
	case c.SlowThreshold == 0:
		c.SlowThreshold = 250 * time.Millisecond
	case c.SlowThreshold < 0:
		c.SlowThreshold = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 250 * time.Millisecond
	}
	return c
}

// Server serves visualization queries and tiles over HTTP. Safe for
// concurrent use; create with New.
type Server struct {
	cfg     Config
	st      *store.Store
	planner *query.Planner
	cache   *tilecache.Cache
	mux     *http.ServeMux
	metrics *metrics
	slow    *obs.SlowLog
	// limiters holds the per-route admission gates (nil entries / nil
	// map = unlimited); built once in New from Config.MaxInFlight.
	limiters map[string]*limiter

	// boundsMu guards bounds: per base table, the data extent tile
	// addresses are resolved against.
	boundsMu sync.RWMutex
	bounds   map[string]extent

	// coldMu guards the cold-start record (how the catalog behind this
	// server was populated, and how long it took), set once at startup.
	coldMu      sync.Mutex
	coldSource  string
	coldSeconds float64
}

// SetColdStart records how the serving catalog was populated
// ("snapshot" or "rebuild") and the time it took, for /metrics.
func (s *Server) SetColdStart(source string, d time.Duration) {
	s.coldMu.Lock()
	s.coldSource, s.coldSeconds = source, d.Seconds()
	s.coldMu.Unlock()
}

// coldStart returns the recorded cold-start mode and duration.
func (s *Server) coldStart() (string, float64) {
	s.coldMu.Lock()
	defer s.coldMu.Unlock()
	return s.coldSource, s.coldSeconds
}

// New returns a server over the given store and planner. It panics
// when cfg lacks AppendHook or DeleteHook.
func New(st *store.Store, planner *query.Planner, cfg Config) *Server {
	if cfg.AppendHook == nil || cfg.DeleteHook == nil {
		panic("server: Config.AppendHook and Config.DeleteHook are required")
	}
	s := &Server{
		cfg:     cfg.withDefaults(),
		st:      st,
		planner: planner,
		cache:   tilecache.New(tileCacheBytes),
		metrics: newMetrics("tables", "query", "nearest", "tile", "append", "delete", "healthz", "metrics", "debug"),
		bounds:  make(map[string]extent),
	}
	s.slow = obs.NewSlowLog(slowLogSize, s.cfg.SlowThreshold)
	if s.cfg.MaxInFlight > 0 {
		s.limiters = make(map[string]*limiter, len(heavyRoutes))
		for route := range heavyRoutes {
			s.limiters[route] = newLimiter(s.cfg.MaxInFlight, s.cfg.QueueDepth, s.cfg.QueueTimeout)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tables", s.instrument("tables", s.handleTables))
	mux.HandleFunc("GET /v1/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("GET /v1/nearest", s.instrument("nearest", s.handleNearest))
	mux.HandleFunc("GET /v1/tile/{table}/{z}/{x}/{y}", s.instrument("tile", s.handleTile))
	mux.HandleFunc("POST /v1/append/{table}", s.instrument("append", s.handleAppend))
	mux.HandleFunc("POST /v1/delete/{table}", s.instrument("delete", s.handleDelete))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/slow", s.instrument("debug", s.handleSlow))
	// Catch-all: unregistered paths still pass through the middleware,
	// so every response the server sends is counted (route="other")
	// rather than silently answered by the mux's default NotFound.
	mux.HandleFunc("/", s.instrument(routeOther, func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ---- instrumentation ----

// statusWriter records the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the resilience + observability
// middleware. In order: admission control (the per-route in-flight cap
// with its bounded wait queue — shed requests are answered and counted
// without ever reaching the handler), the per-request deadline (the
// context is canceled at Config.RequestTimeout and the engine's
// cooperative cancellation checks unwind the scan), then tracing —
// every request gets a fresh trace carried in its context, and on
// completion the trace feeds the per-route latency histogram, the
// per-stage duration histograms, and the slow-query log.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(route)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if lim := s.limiters[route]; lim != nil {
			if reason := lim.acquire(r.Context()); reason != "" {
				s.shed(sw, route, reason)
				tr.Status = sw.status
				s.metrics.record(route, sw.status, tr.Finish())
				return
			}
			defer lim.release()
		}
		ctx := obs.WithTrace(r.Context(), tr)
		if s.cfg.RequestTimeout > 0 && heavyRoutes[route] {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		r = r.WithContext(ctx)
		h(sw, r)
		if ctx.Err() == context.DeadlineExceeded && sw.status >= 400 {
			// The deadline fired AND the request failed: the handler
			// unwound through the cancellation path, not a race where
			// the response won by a hair.
			s.metrics.recordTimeout(route)
		}
		tr.Status = sw.status
		total := tr.Finish()
		s.metrics.record(route, sw.status, total)
		s.metrics.recordStages(tr)
		s.slow.Record(tr)
	}
}

// httpError maps engine errors onto HTTP statuses and writes a JSON
// body. The resilience taxonomy is explicit: a deadline that fired
// server-side is 503 + Retry-After (the server was too slow — back off
// and retry), a canceled context is 499 (the client hung up — nobody is
// reading), a degraded-mode write rejection is 503 + Retry-After
// (the mode clears when persistence heals), and a write to a sample
// table is 409 (it conflicts with what the table is).
func httpError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, store.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, query.ErrNoSampleFits):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, store.ErrBadNearest):
		status = http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	case errors.Is(err, ErrDegraded):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrSampleTable):
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// jsonBufs holds the buffers writeJSON encodes into.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v, trailing newline included, before it writes the
// header, so a value encoding/json rejects (a NaN or infinite float)
// is answered 500 with a JSON error rather than a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		jsonBufs.Put(buf)
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(map[string]string{"error": "encode response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// ---- /v1/tables ----

// SampleInfo describes one registered sample in the tables listing.
type SampleInfo struct {
	Table      string `json:"table"`
	Method     string `json:"method"`
	Size       int    `json:"size"`
	HasDensity bool   `json:"hasDensity"`
}

// TableInfo describes one base table in the tables listing.
type TableInfo struct {
	Name string `json:"name"`
	// Rows is the physical row count; LiveRows excludes rows tombstoned
	// by deletes but not yet reclaimed by compaction. The two converge
	// after every compaction.
	Rows     int          `json:"rows"`
	LiveRows int          `json:"liveRows"`
	Bounds   *RectJSON    `json:"bounds,omitempty"`
	Samples  []SampleInfo `json:"samples"`
}

// RectJSON is the wire form of a geom.Rect.
type RectJSON struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	names := s.st.TableNames()
	isSample := make(map[string]bool)
	samplesOf := make(map[string][]store.SampleMeta)
	for _, n := range names {
		metas := s.st.SamplesOf(n)
		samplesOf[n] = metas
		for _, m := range metas {
			isSample[m.Table] = true
		}
	}
	out := make([]TableInfo, 0, len(names))
	for _, n := range names {
		if isSample[n] {
			continue
		}
		t, err := s.st.Table(n)
		if err != nil {
			continue // dropped concurrently
		}
		// One view: the counts and a freshly computed extent describe
		// the same generation, so liveRows never exceeds rows.
		v := t.View()
		info := TableInfo{Name: n, Rows: v.NumRows(), LiveRows: v.LiveRows(), Samples: []SampleInfo{}}
		if e, err := s.tableBounds(n, v); err == nil && !e.rect.IsEmpty() {
			info.Bounds = &RectJSON{MinX: e.rect.MinX, MinY: e.rect.MinY, MaxX: e.rect.MaxX, MaxY: e.rect.MaxY}
		}
		for _, m := range samplesOf[n] {
			info.Samples = append(info.Samples, SampleInfo{
				Table: m.Table, Method: m.Method, Size: m.Size, HasDensity: m.HasDensity,
			})
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tables": out})
}

// extent is a base table's data extent as of generation gen. Tile keys
// name it by since, the oldest generation known to have it, so a write
// that leaves the extent as it was leaves sampled tiles' keys too.
type extent struct {
	gen, since uint64
	rect       geom.Rect
}

// tableBounds returns the data extent of a base table as of v, the
// caller's view of it. The extent is cached with v's generation, and
// used only by views of that generation; a newer one replaces it. An
// empty extent is cached too: the load that fills the table publishes
// a new generation.
func (s *Server) tableBounds(table string, v store.View) (extent, error) {
	s.boundsMu.RLock()
	cur, ok := s.bounds[table]
	s.boundsMu.RUnlock()
	if ok && cur.gen == v.Gen() {
		return cur, nil
	}
	b, err := v.Bounds(xCol, yCol)
	if err != nil {
		return extent{}, err
	}
	e := extent{gen: v.Gen(), since: v.Gen(), rect: b}
	if ok && cur.rect == b {
		e.since = cur.since
	}
	s.boundsMu.Lock()
	if cur, ok := s.bounds[table]; !ok || cur.gen < e.gen {
		s.bounds[table] = e
	}
	s.boundsMu.Unlock()
	return e, nil
}

// ---- /v1/query ----

// QueryResponse is the JSON answer to /v1/query.
type QueryResponse struct {
	Table string `json:"table"`
	// Points are [x, y] pairs.
	Points [][2]float64 `json:"points"`
	// Counts carries density weights when the served sample has them.
	Counts []float64 `json:"counts,omitempty"`
	// Sample names the served sample table; empty for an exact scan.
	Sample string `json:"sample,omitempty"`
	// SampleSize is the size of the served sample (0 for an exact scan).
	SampleSize int  `json:"sampleSize"`
	Exact      bool `json:"exact"`
	// ServedRows is the exact live row count of the table generation the
	// answer was scanned from — under live ingest, how current the served
	// data is. Tombstoned (deleted but not yet reclaimed) rows are
	// excluded.
	ServedRows int `json:"servedRows"`
	// PredictedMillis is the latency-model estimate for rendering Points.
	PredictedMillis float64 `json:"predictedMillis"`
	// PlanMillis is the engine-side planning+scan time.
	PlanMillis float64 `json:"planMillis"`
	// Scan reports how the rows were selected — index probe vs linear
	// fallback, and the zone-map pruning achieved for filtered queries.
	Scan ScanStatsJSON `json:"scan"`
}

// ScanStatsJSON is the wire form of store.ScanStats.
type ScanStatsJSON struct {
	IndexProbe   bool `json:"indexProbe"`
	CellsTouched int  `json:"cellsTouched"`
	CellsPruned  int  `json:"cellsPruned"`
	CellsBulk    int  `json:"cellsBulk"`
	RowsExamined int  `json:"rowsExamined"`
	ZonesSkipped int  `json:"zonesSkipped"`
	BatchedRows  int  `json:"batchedRows"`
}

func scanStatsJSON(st store.ScanStats) ScanStatsJSON {
	// A direct conversion: the structs are field-for-field identical, and
	// this breaks the build (instead of silently dropping data) if one
	// side grows a field the other lacks.
	return ScanStatsJSON(st)
}

// parseViewport reads minx/miny/maxx/maxy; absent parameters yield the
// zero Rect ("full extent"). Partial viewports are rejected.
func parseViewport(r *http.Request) (geom.Rect, error) {
	keys := [4]string{"minx", "miny", "maxx", "maxy"}
	var vals [4]float64
	present := 0
	for i, k := range keys {
		raw := r.URL.Query().Get(k)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return geom.Rect{}, fmt.Errorf("bad %s %q", k, raw)
		}
		vals[i] = v
		present++
	}
	if present == 0 {
		return geom.Rect{}, nil
	}
	if present != 4 {
		return geom.Rect{}, errors.New("viewport needs all of minx, miny, maxx, maxy")
	}
	vp := geom.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
	if vp.IsEmpty() {
		return geom.Rect{}, fmt.Errorf("empty viewport %v", vp)
	}
	return vp, nil
}

// parseFilters reads repeated filter=col:lo:hi parameters into pushdown
// predicates. The LAST two ":"-separated fields are the bounds, so
// column names may themselves contain ":" (or "|"); an empty lo or hi
// means unbounded on that side. The second return value is the
// canonical cache-key encoding of the filter set: bounds reformatted
// through the float parser, column names length-prefixed, and entries
// sorted, so two spellings of the same predicate set share cached tiles
// and any differing set gets its own key.
func parseFilters(r *http.Request) ([]store.Pred, string, error) {
	raws := r.URL.Query()["filter"]
	if len(raws) == 0 {
		return nil, "", nil
	}
	preds := make([]store.Pred, 0, len(raws))
	canon := make([]string, 0, len(raws))
	for _, raw := range raws {
		hiSep := strings.LastIndexByte(raw, ':')
		loSep := -1
		if hiSep > 0 {
			loSep = strings.LastIndexByte(raw[:hiSep], ':')
		}
		if loSep <= 0 {
			return nil, "", fmt.Errorf("bad filter %q (want col:lo:hi, empty bound = unbounded)", raw)
		}
		col, loRaw, hiRaw := raw[:loSep], raw[loSep+1:hiSep], raw[hiSep+1:]
		p := store.Pred{Column: col, Min: math.Inf(-1), Max: math.Inf(1)}
		var err error
		if loRaw != "" {
			if p.Min, err = strconv.ParseFloat(loRaw, 64); err != nil {
				return nil, "", fmt.Errorf("bad filter %q: lo %q is not a number", raw, loRaw)
			}
		}
		if hiRaw != "" {
			if p.Max, err = strconv.ParseFloat(hiRaw, 64); err != nil {
				return nil, "", fmt.Errorf("bad filter %q: hi %q is not a number", raw, hiRaw)
			}
		}
		// Canonicalize the equivalent spellings of each bound before the
		// key is formatted: a NaN bound means unbounded (exactly what the
		// store folds it to), and -0 compares identically to 0 — neither
		// may fragment the tile cache.
		if math.IsNaN(p.Min) {
			p.Min = math.Inf(-1)
		}
		if math.IsNaN(p.Max) {
			p.Max = math.Inf(1)
		}
		if p.Min == 0 {
			p.Min = 0
		}
		if p.Max == 0 {
			p.Max = 0
		}
		preds = append(preds, p)
		// The column name is length-prefixed: entries are joined with
		// "|" and fields with ":" below, and column names may contain
		// both characters — without the prefix, the one-filter set on
		// column "a:1:2|b" and the two-filter set on "a" and "b" would
		// canonicalize to the same cache key and serve each other's
		// tiles.
		canon = append(canon, fmt.Sprintf("%d:%s:%s:%s",
			len(p.Column), p.Column,
			strconv.FormatFloat(p.Min, 'g', -1, 64),
			strconv.FormatFloat(p.Max, 'g', -1, 64)))
	}
	sort.Strings(canon)
	return preds, strings.Join(canon, "|"), nil
}

// parseRects reads repeated rect=minx:miny:maxx:maxy parameters — the
// multi-viewport query shape, answered as the union of the rectangles.
func parseRects(r *http.Request) ([]geom.Rect, error) {
	raws := r.URL.Query()["rect"]
	if len(raws) == 0 {
		return nil, nil
	}
	rects := make([]geom.Rect, 0, len(raws))
	for _, raw := range raws {
		parts := strings.Split(raw, ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("bad rect %q (want minx:miny:maxx:maxy)", raw)
		}
		var vals [4]float64
		for i, part := range parts {
			v, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return nil, fmt.Errorf("bad rect %q: %q is not a number", raw, part)
			}
			vals[i] = v
		}
		rc := geom.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
		if rc.IsEmpty() {
			return nil, fmt.Errorf("empty rect %q", raw)
		}
		rects = append(rects, rc)
	}
	return rects, nil
}

func parseBudget(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("budget")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad budget %q (want a Go duration like 500ms)", raw)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative budget %q", raw)
	}
	return d, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	table := r.URL.Query().Get("table")
	if table == "" {
		badRequest(w, "missing table parameter")
		return
	}
	vp, err := parseViewport(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	rects, err := parseRects(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	if len(rects) > 0 && vp != (geom.Rect{}) {
		// One viewport spelling per request: combining them would have
		// to guess union vs intersection intent.
		badRequest(w, "rect and minx/miny/maxx/maxy are mutually exclusive")
		return
	}
	budget, err := parseBudget(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	filters, _, err := parseFilters(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	exact := r.URL.Query().Get("exact") == "true"
	resp, err := s.planner.PlanCtx(r.Context(), query.Request{
		Table: table, XCol: xCol, YCol: yCol,
		Viewport: vp, Rects: rects, Budget: budget, Exact: exact, Filters: filters,
	})
	if err != nil {
		httpError(w, err)
		return
	}
	out := QueryResponse{
		Table:           table,
		Points:          make([][2]float64, len(resp.Points)),
		Counts:          resp.Values,
		Sample:          resp.Sample.Table,
		SampleSize:      resp.Sample.Size,
		Exact:           resp.ExactScan,
		ServedRows:      resp.ServedRows,
		PredictedMillis: float64(resp.PredictedTime) / float64(time.Millisecond),
		PlanMillis:      float64(resp.PlanTime) / float64(time.Millisecond),
		Scan:            scanStatsJSON(resp.Scan),
	}
	for i, p := range resp.Points {
		out.Points[i] = [2]float64{p.X, p.Y}
	}
	tr := obs.FromContext(r.Context())
	tr.SetScan(out.Scan)
	sp := tr.StartSpan(obs.StageEncode)
	writeJSON(w, http.StatusOK, out)
	sp.End()
}

// ---- /v1/nearest ----

// NeighborJSON is one result row of /v1/nearest, nearest-first.
type NeighborJSON struct {
	Row  int     `json:"row"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Dist float64 `json:"dist"`
}

// NearestResponse is the JSON answer to /v1/nearest.
type NearestResponse struct {
	Table     string         `json:"table"`
	K         int            `json:"k"`
	Neighbors []NeighborJSON `json:"neighbors"`
	// ServedRows is the exact live row count of the generation searched.
	ServedRows int `json:"servedRows"`
	// PlanMillis is the engine-side plan+search time.
	PlanMillis float64 `json:"planMillis"`
	// Scan reports how the search ran — best-first tree descent (index
	// probe) vs brute-force sweep, and the leaf pruning achieved.
	Scan ScanStatsJSON `json:"scan"`
}

// handleNearest serves GET /v1/nearest?table=&x=&y=&k=&filter=col:lo:hi —
// the k nearest live rows to (x, y) by Euclidean distance, filtered by
// the optional predicates. Always exact against the base table: a kNN
// answer is k specific rows, so there is no sample/budget tradeoff to
// make. Tree-backed tables answer with a best-first branch-and-bound
// descent; grid-backed and unindexed tables fall back to a brute-force
// sweep (both report their work in scan).
func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	table := q.Get("table")
	if table == "" {
		badRequest(w, "missing table parameter")
		return
	}
	xRaw, yRaw := q.Get("x"), q.Get("y")
	if xRaw == "" || yRaw == "" {
		badRequest(w, "missing x or y parameter")
		return
	}
	x, errX := strconv.ParseFloat(xRaw, 64)
	y, errY := strconv.ParseFloat(yRaw, 64)
	if errX != nil || errY != nil {
		badRequest(w, "x and y must be numbers")
		return
	}
	k := 1
	if raw := q.Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			badRequest(w, "k must be a positive integer")
			return
		}
		k = v
	}
	filters, _, err := parseFilters(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	resp, err := s.planner.NearestCtx(r.Context(), query.NearestRequest{
		Table: table, XCol: xCol, YCol: yCol,
		X: x, Y: y, K: k, Filters: filters,
	})
	if err != nil {
		httpError(w, err)
		return
	}
	out := NearestResponse{
		Table:      table,
		K:          k,
		Neighbors:  make([]NeighborJSON, len(resp.Neighbors)),
		ServedRows: resp.ServedRows,
		PlanMillis: float64(resp.PlanTime) / float64(time.Millisecond),
		Scan:       scanStatsJSON(resp.Scan),
	}
	for i, n := range resp.Neighbors {
		out.Neighbors[i] = NeighborJSON{Row: n.Row, X: n.X, Y: n.Y, Dist: n.Dist}
	}
	tr := obs.FromContext(r.Context())
	tr.SetTable(table)
	tr.SetScan(out.Scan)
	sp := tr.StartSpan(obs.StageEncode)
	writeJSON(w, http.StatusOK, out)
	sp.End()
}

// ---- /v1/append ----

// AppendRequest is the JSON body of POST /v1/append/{table}. Exactly
// one of Points and Rows must be non-empty: Points is the [x, y]
// convenience shape for two-column tables, Rows the general row-major
// shape (each inner slice one row, in schema column order). Points is
// deliberately [][]float64, not [][2]float64: encoding/json silently
// zero-fills and truncates fixed-size arrays, and a malformed point
// must be rejected, not ingested as (x, 0).
type AppendRequest struct {
	Points [][]float64 `json:"points,omitempty"`
	Rows   [][]float64 `json:"rows,omitempty"`
}

// AppendResponse is the JSON answer to /v1/append.
type AppendResponse struct {
	// Appended is the number of rows this batch added.
	Appended int `json:"appended"`
	// Rows is the table's live row count after the batch (tombstoned
	// rows excluded).
	Rows int `json:"rows"`
}

// handleAppend serves POST /v1/append/{table}: AppendHook lands the
// batch in the table (past the spatial indexes, where scans filter it as
// the appended tail until compaction folds it in) as a new generation
// of it (see handleTile), and the ingest counters on /metrics advance.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	var req AppendRequest
	body := http.MaxBytesReader(w, r.Body, maxAppendBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// Distinguish "split the batch and retry" from "payload is
			// broken".
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
				"error": fmt.Sprintf("append body exceeds %d bytes; split the batch", maxAppendBytes),
			})
			return
		}
		badRequest(w, "bad append body: %v", err)
		return
	}
	if len(req.Points) == 0 && len(req.Rows) == 0 {
		// An empty batch is a legitimate no-op, not a client error —
		// batching producers naturally emit one at a quiet flush
		// interval. Nothing changed, so neither the table's generation
		// nor the tail log moves; the table must still exist for the row
		// count.
		t, err := s.st.Table(table)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, AppendResponse{Appended: 0, Rows: t.View().LiveRows()})
		return
	}
	if len(req.Points) > 0 && len(req.Rows) > 0 {
		badRequest(w, "append body needs exactly one of points, rows")
		return
	}
	var cols [][]float64
	if len(req.Points) > 0 {
		xs := make([]float64, len(req.Points))
		ys := make([]float64, len(req.Points))
		for i, p := range req.Points {
			if len(p) != 2 {
				badRequest(w, "append point %d has %d values, want [x, y]", i, len(p))
				return
			}
			xs[i], ys[i] = p[0], p[1]
		}
		cols = [][]float64{xs, ys}
	} else {
		width := len(req.Rows[0])
		if width == 0 {
			badRequest(w, "append rows must not be empty")
			return
		}
		cols = make([][]float64, width)
		for i := range cols {
			cols[i] = make([]float64, len(req.Rows))
		}
		for ri, row := range req.Rows {
			if len(row) != width {
				badRequest(w, "append row %d has %d values, row 0 has %d", ri, len(row), width)
				return
			}
			for ci, v := range row {
				cols[ci][ri] = v
			}
		}
	}
	n, err := s.cfg.AppendHook(table, cols)
	if n > 0 {
		s.metrics.ingestBatches.Add(1)
		s.metrics.ingestRows.Add(int64(n))
	}
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound), errors.Is(err, ErrDegraded), errors.Is(err, ErrSampleTable):
			httpError(w, err)
		case n > 0:
			// The batch is live but a server-side step (the snapshot
			// tail log) failed: that is our fault, not the payload's —
			// and the client must know a blind retry would duplicate
			// the now-visible rows.
			writeJSON(w, http.StatusInternalServerError, map[string]string{
				"error": fmt.Sprintf("rows appended and serving, but not durable: %v", err),
			})
		default:
			// Everything else an append can fail on before any row
			// lands is a payload/schema mismatch (wrong column count
			// for the table).
			badRequest(w, "%v", err)
		}
		return
	}
	rows := 0
	if t, err := s.st.Table(table); err == nil {
		rows = t.View().LiveRows()
	}
	writeJSON(w, http.StatusOK, AppendResponse{Appended: n, Rows: rows})
}

// ---- /v1/delete ----

// PredJSON is one conjunctive range predicate in a delete request; a
// nil bound means unbounded on that side.
type PredJSON struct {
	Column string   `json:"column"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

// DeleteRequest is the JSON body of POST /v1/delete/{table}. Rect and
// Filters compose conjunctively (a row must be inside the rect AND
// match every filter). A request with neither must set All — deleting a
// whole table by accidentally empty body is too cheap a mistake.
type DeleteRequest struct {
	Rect    *RectJSON  `json:"rect,omitempty"`
	Filters []PredJSON `json:"filters,omitempty"`
	All     bool       `json:"all,omitempty"`
}

// DeleteResponse is the JSON answer to /v1/delete.
type DeleteResponse struct {
	// Deleted is the number of rows this request newly tombstoned.
	Deleted int `json:"deleted"`
	// Rows is the table's live row count after the delete.
	Rows int `json:"rows"`
}

// handleDelete serves POST /v1/delete/{table}: DeleteHook tombstones the
// matching rows — atomically invisible to every later query and tile,
// since the delete publishes a new generation of the table, and
// physically reclaimed by the table's next background compaction.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	var req DeleteRequest
	body := http.MaxBytesReader(w, r.Body, maxAppendBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		badRequest(w, "bad delete body: %v", err)
		return
	}
	if req.Rect == nil && len(req.Filters) == 0 && !req.All {
		badRequest(w, `delete body needs a rect or filters (or "all": true to delete every row)`)
		return
	}
	var preds []store.Pred
	if req.Rect != nil {
		preds = append(preds,
			store.Pred{Column: xCol, Min: req.Rect.MinX, Max: req.Rect.MaxX},
			store.Pred{Column: yCol, Min: req.Rect.MinY, Max: req.Rect.MaxY})
	}
	for _, f := range req.Filters {
		if f.Column == "" {
			badRequest(w, "delete filter needs a column")
			return
		}
		p := store.Pred{Column: f.Column, Min: math.Inf(-1), Max: math.Inf(1)}
		if f.Min != nil {
			p.Min = *f.Min
		}
		if f.Max != nil {
			p.Max = *f.Max
		}
		preds = append(preds, p)
	}
	n, err := s.cfg.DeleteHook(table, preds)
	if n > 0 {
		s.metrics.deleteRequests.Add(1)
		s.metrics.deleteRows.Add(int64(n))
	}
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound):
			httpError(w, err)
		case n > 0:
			writeJSON(w, http.StatusInternalServerError, map[string]string{
				"error": fmt.Sprintf("rows deleted from serving, but not durable: %v", err),
			})
		default:
			httpError(w, err)
		}
		return
	}
	rows := 0
	if t, err := s.st.Table(table); err == nil {
		rows = t.View().LiveRows()
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: n, Rows: rows})
}

// ---- /v1/tile ----

// handleTile serves GET /v1/tile/{table}/{z}/{x}/{y}.png. Optional query
// parameters: size (tile edge in pixels), budget (latency budget for
// sample selection), exact=true (render the base table), and repeated
// filter=col:lo:hi predicates pushed down into the tile's index probe.
//
// A tile is a pure function of its cache key: the generation of the view
// it renders (Planner.Resolve: the sample, or the base table for
// exact=true), the extent its address resolved against, the address,
// size and canonical filters. A write publishes a new generation, so no
// tile cached before it is served after it, but for a sampled tile whose
// sample and extent the write left as they were.
func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	yRaw, ok := strings.CutSuffix(r.PathValue("y"), ".png")
	if !ok {
		badRequest(w, "tile path must end in .png")
		return
	}
	z, errZ := strconv.Atoi(r.PathValue("z"))
	x, errX := strconv.Atoi(r.PathValue("x"))
	y, errY := strconv.Atoi(yRaw)
	if errZ != nil || errX != nil || errY != nil {
		badRequest(w, "tile address must be integers: /v1/tile/{table}/{z}/{x}/{y}.png")
		return
	}
	size := defaultTileSize
	if raw := r.URL.Query().Get("size"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 16 || v > maxTileSize {
			badRequest(w, "size must be an integer in [16,%d]", maxTileSize)
			return
		}
		size = v
	}
	budget, err := parseBudget(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	filters, filterKey, err := parseFilters(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	exact := r.URL.Query().Get("exact") == "true"

	t, err := s.st.Table(table)
	if err != nil {
		httpError(w, err)
		return
	}
	// The extent the address resolves against is part of the key, so
	// the view rendered below may be a later one than this.
	ext, err := s.tableBounds(table, t.View())
	if err != nil {
		httpError(w, err)
		return
	}
	if ext.rect.IsEmpty() {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("table %q has no data", table)})
		return
	}
	tileRect, err := geom.TileRect(ext.rect, z, x, y)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}

	ctx := r.Context()
	tr := obs.FromContext(ctx)
	tr.SetTable(table)
	sp := tr.StartSpan(obs.StagePlan)
	meta, view, err := s.planner.Resolve(query.Request{
		Table: table, XCol: xCol, YCol: yCol, Budget: budget, Exact: exact,
	})
	sp.End()
	if err != nil {
		httpError(w, err)
		return
	}
	sampleName := meta.Table
	if exact {
		sampleName = "__exact__"
	}
	key := tilecache.Key{
		Table: table, Sample: sampleName, Epoch: view.Gen(), ExtentGen: ext.since,
		Z: z, X: x, Y: y, Size: size, Filters: filterKey,
	}
	// The cache span covers lookup, single-flight waiting, and the
	// insert — everything but the render itself, whose time lands in its
	// own stages (probe/residual/gather/render/encode). The span is
	// closed across the render callback so the stages stay disjoint and
	// a trace's stage sum still approximates its total.
	csp := tr.StartSpan(obs.StageCache)
	png, metaAny, hit, err := s.cache.GetOrRender(key, func() ([]byte, any, error) {
		csp.End()
		b, tm, err := s.renderTile(ctx, view, meta, tileRect, size, filters)
		csp = tr.StartSpan(obs.StageCache)
		return b, tm, err
	})
	csp.End()
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("X-Sample", sampleName)
	if hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	// PNG bytes have no stats channel, so the scan identity of the tile
	// rides in response headers, mirroring the JSON fields on /v1/query.
	// The sidecar is cached with the tile: hits answer with the stats of
	// the render that produced the pixels.
	if tm, ok := metaAny.(tileMeta); ok {
		tm.setHeaders(w.Header())
		tr.SetScan(scanStatsJSON(tm.Scan))
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(png)))
	_, _ = w.Write(png)
}

// tileMeta is the sidecar cached alongside each rendered tile: the
// scan statistics and serving currency of the render, replayed as
// X-Vas-* headers on every later cache hit.
type tileMeta struct {
	Scan       store.ScanStats
	ServedRows int
}

func (tm tileMeta) setHeaders(h http.Header) {
	h.Set("X-Vas-Scan-Index-Probe", strconv.FormatBool(tm.Scan.IndexProbe))
	h.Set("X-Vas-Scan-Cells-Touched", strconv.Itoa(tm.Scan.CellsTouched))
	h.Set("X-Vas-Scan-Cells-Pruned", strconv.Itoa(tm.Scan.CellsPruned))
	h.Set("X-Vas-Scan-Cells-Bulk", strconv.Itoa(tm.Scan.CellsBulk))
	h.Set("X-Vas-Scan-Rows-Examined", strconv.Itoa(tm.Scan.RowsExamined))
	h.Set("X-Vas-Scan-Zones-Skipped", strconv.Itoa(tm.Scan.ZonesSkipped))
	h.Set("X-Vas-Served-Rows", strconv.Itoa(tm.ServedRows))
}

// renderTile scans v, the view the caller keyed the tile by, within the
// tile rectangle, pushing any filters into the same probe, and encodes
// the raster as PNG. meta is the sample v belongs to, or the zero value
// for an exact tile of the base table. Density-embedded samples render
// with the §V weighted-dot encoding.
func (s *Server) renderTile(ctx context.Context, v store.View, meta store.SampleMeta, tileRect geom.Rect, size int, filters []store.Pred) ([]byte, tileMeta, error) {
	var tm tileMeta
	xc, yc := xCol, yCol
	if meta.Table != "" {
		xc, yc = meta.XCol, meta.YCol
	}
	// Index probe: sample and base tables published through the catalog
	// carry a spatial index over their (x, y) pair, so a tile-cache miss
	// reads only the cells its rectangle overlaps instead of scanning
	// the table — and zone maps prune cells the filters rule out. The
	// scan, the projection, the density gather and the served-row count
	// all read the one view, so ServedRows is the exact live count of
	// the generation the pixels came from.
	rows, st, err := v.ScanRects(ctx, xc, yc, []geom.Rect{tileRect}, filters)
	if err != nil {
		return nil, tm, err
	}
	tm.Scan = st
	tm.ServedRows = v.LiveRows()
	sp := obs.StartSpan(ctx, obs.StageGather)
	pts, err := v.Points(xc, yc, rows)
	sp.End()
	if err != nil {
		return nil, tm, err
	}
	ras := render.NewRaster(tileRect, size, size)
	if meta.HasDensity {
		// A density sample whose density column cannot be gathered is
		// broken data; surface it rather than silently rendering (and
		// caching) an unweighted tile.
		sp = obs.StartSpan(ctx, obs.StageGather)
		vals, err := v.Gather("density", rows)
		sp.End()
		if err != nil {
			return nil, tm, fmt.Errorf("sample %q density gather: %w", meta.Table, err)
		}
		weights := make([]int64, len(vals))
		for i, val := range vals {
			weights[i] = int64(val)
		}
		sp = obs.StartSpan(ctx, obs.StageRender)
		_, err = ras.PlotWeighted(pts, weights, 0)
		sp.End()
		if err != nil {
			return nil, tm, err
		}
	} else {
		sp = obs.StartSpan(ctx, obs.StageRender)
		ras.Plot(pts)
		sp.End()
	}
	sp = obs.StartSpan(ctx, obs.StageEncode)
	var buf bytes.Buffer
	err = ras.WritePNG(&buf)
	sp.End()
	ras.Release()
	if err != nil {
		return nil, tm, err
	}
	return buf.Bytes(), tm, nil
}

// ---- /healthz, /metrics and /debug/slow ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "tables": len(s.st.TableNames())})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	source, seconds := s.coldStart()
	var tails []TailStatus
	if s.cfg.TailStatus != nil {
		tails = s.cfg.TailStatus()
	}
	s.metrics.write(w, s.cache.Stats(), s.st.IndexStats(), source, seconds, tails, obs.DefaultJobs.Snapshot())
}

// handleSlow serves the slow-query log: the retained traces
// (newest-first), the slowest request seen, and per-table latency
// summaries.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slow.Report())
}
