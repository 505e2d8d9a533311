// Package obs is the observability substrate of the serving stack:
// request-scoped traces (per-stage span timing carried through
// context.Context), a lock-cheap slow-query log, minimal Prometheus
// exposition primitives (cumulative histograms, text-format writers),
// and timed background-job instrumentation (compaction, snapshot saves,
// tail-log writes).
//
// The package sits below every serving layer — store, query, server,
// the vas façade — and imports nothing from the repository, so any
// layer can record into it without dependency cycles.
//
// Tracing is strictly pay-for-what-you-use: a Span started from a
// context that carries no Trace is a zero value whose End is a no-op,
// with no allocation and no clock read, so instrumented hot paths cost
// nothing when nobody is watching.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Stage identifies one timed phase of a request. Stages are disjoint
// wall-clock intervals: summing a trace's stage durations approximates
// the request total, and the gap is untraced overhead.
type Stage uint8

const (
	// StagePlan is sample selection and table resolution.
	StagePlan Stage = iota
	// StageProbe is the spatial-index probe (grid cells or tree leaves).
	StageProbe
	// StageResidual is per-row predicate evaluation outside the probe:
	// the linear fallback scan and the uncovered appended tail.
	StageResidual
	// StageGather is row projection (Points, density Gather).
	StageGather
	// StageRender is rasterizing points into a tile.
	StageRender
	// StageEncode is response encoding (PNG or JSON).
	StageEncode
	// StageCache is tile-cache interaction (lookup, single-flight wait,
	// insert) minus the render itself.
	StageCache
	// NumStages bounds the Stage enum; it is not a stage.
	NumStages
)

var stageNames = [NumStages]string{
	"plan", "probe", "residual", "gather", "render", "encode", "cache",
}

// String returns the stage's exposition label.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// stageAcc accumulates one stage's time within a single trace. Traces
// are single-goroutine until Finish publishes them, so plain fields
// suffice; the slow log's mutex provides the happens-before edge for
// later readers.
type stageAcc struct {
	nanos int64
	count int32
}

// Annot is one key-value annotation on a trace.
type Annot struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Trace is a request-scoped span recorder: per-stage accumulated
// durations, key-value annotations, and the scan statistics of the row
// selection that answered the request. A Trace is built by one
// goroutine and becomes immutable after Finish; it is not safe for
// concurrent mutation.
type Trace struct {
	// ID is a process-unique request id.
	ID uint64
	// Route is the HTTP route label the request arrived on.
	Route string
	// Table is the base table the request addressed, when known.
	Table string
	// Start is when the trace began.
	Start time.Time
	// Total is the request's wall time, set by Finish.
	Total time.Duration
	// Status is the HTTP status the request answered with, when the
	// trace was born in the HTTP layer.
	Status int
	// Scan carries the request's scan statistics in a JSON-marshalable
	// form (the server attaches its wire struct).
	Scan any

	stages [NumStages]stageAcc
	annots []Annot
}

var traceID atomic.Uint64

// NewTrace starts a trace for the given route.
func NewTrace(route string) *Trace {
	return &Trace{ID: traceID.Add(1), Route: route, Start: time.Now()}
}

// Finish stamps the total duration and returns it.
func (t *Trace) Finish() time.Duration {
	t.Total = time.Since(t.Start)
	return t.Total
}

// Annotate attaches a key-value annotation. Nil-safe.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.annots = append(t.annots, Annot{Key: key, Value: value})
}

// SetTable records the base table the request addressed. Nil-safe.
func (t *Trace) SetTable(table string) {
	if t != nil {
		t.Table = table
	}
}

// SetScan attaches the scan statistics of the row selection. Nil-safe.
func (t *Trace) SetScan(scan any) {
	if t != nil {
		t.Scan = scan
	}
}

// StageDuration returns the accumulated duration of one stage.
func (t *Trace) StageDuration(s Stage) time.Duration {
	return time.Duration(t.stages[s].nanos)
}

// StageCount returns how many spans were recorded for one stage.
func (t *Trace) StageCount(s Stage) int {
	return int(t.stages[s].count)
}

// Span is one in-flight stage measurement. The zero Span (no trace
// attached) is valid: End is a no-op. Spans are values — starting and
// ending one never allocates.
type Span struct {
	tr    *Trace
	stage Stage
	start time.Time
}

// StartSpan begins timing a stage on the trace. Nil-safe: a nil trace
// yields the zero Span without reading the clock.
func (t *Trace) StartSpan(stage Stage) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, stage: stage, start: time.Now()}
}

// End stops the span and folds its duration into the trace.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	acc := &s.tr.stages[s.stage]
	acc.nanos += time.Since(s.start).Nanoseconds()
	acc.count++
}

// ctxKey is the context key Trace rides under.
type ctxKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil. A nil context
// is treated as traceless.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// StartSpan begins timing a stage against the context's trace; with no
// trace attached it returns the no-op zero Span without allocating.
func StartSpan(ctx context.Context, stage Stage) Span {
	return FromContext(ctx).StartSpan(stage)
}

// StageTiming is one stage's share of a trace, in wire form.
type StageTiming struct {
	Stage  string  `json:"stage"`
	Millis float64 `json:"millis"`
	Count  int     `json:"count"`
}

// TraceReport is the JSON form of a finished trace.
type TraceReport struct {
	ID          uint64    `json:"id"`
	Route       string    `json:"route"`
	Table       string    `json:"table,omitempty"`
	Status      int       `json:"status,omitempty"`
	Start       time.Time `json:"start"`
	TotalMillis float64   `json:"totalMillis"`
	// StagesMillis sums the per-stage durations; TotalMillis minus it is
	// untraced overhead.
	StagesMillis float64       `json:"stagesMillis"`
	Stages       []StageTiming `json:"stages"`
	Annotations  []Annot       `json:"annotations,omitempty"`
	Scan         any           `json:"scan,omitempty"`
}

// Report converts a finished trace to its wire form. Stages with no
// recorded span are omitted.
func (t *Trace) Report() TraceReport {
	r := TraceReport{
		ID:          t.ID,
		Route:       t.Route,
		Table:       t.Table,
		Status:      t.Status,
		Start:       t.Start,
		TotalMillis: float64(t.Total) / float64(time.Millisecond),
		Annotations: t.annots,
		Scan:        t.Scan,
	}
	for s := Stage(0); s < NumStages; s++ {
		acc := t.stages[s]
		if acc.count == 0 {
			continue
		}
		ms := float64(acc.nanos) / float64(time.Millisecond)
		r.Stages = append(r.Stages, StageTiming{Stage: s.String(), Millis: ms, Count: int(acc.count)})
		r.StagesMillis += ms
	}
	return r
}
