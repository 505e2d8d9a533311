package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the request-latency bucket upper bounds in
// seconds, 50µs to 2.5s — the same ladder the pre-histogram metrics
// used, so dashboards keep their resolution.
var DefaultLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25,
	0.5, 1, 2.5,
}

// DefaultStageBuckets extend the latency ladder down to 10µs: single
// stages of a fast query live well under the 50µs request floor.
var DefaultStageBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25,
	0.5, 1, 2.5,
}

// DefaultJobBuckets cover background jobs (compaction, snapshot save,
// tail-log write), which run from sub-millisecond fsyncs to
// multi-second full-catalog saves.
var DefaultJobBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a concurrency-safe cumulative histogram with Prometheus
// semantics: fixed upper bounds in ascending order plus an implicit
// +Inf overflow bucket, a running sum, and a total count derived from
// the buckets. Observations are lock-free atomic adds.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64  // float64 bits, updated by CAS
}

// NewHistogram makes a histogram over the given ascending upper bounds
// (seconds for duration histograms). The bounds slice is not copied.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// HistSnapshot is a consistent point-in-time copy of a histogram: each
// bucket counter is loaded exactly once, so concurrent Observe calls
// can never produce a cumulative count that runs backwards or a
// quantile above the true upper bound.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64 // per-bucket counts; len(Bounds)+1, last is +Inf
	Sum    float64
	Count  int64
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Merge folds another snapshot of the same bucket layout into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(s.Counts) == 0 {
		s.Bounds = o.Bounds
		s.Counts = append([]int64(nil), o.Counts...)
		s.Sum = o.Sum
		s.Count = o.Count
		return
	}
	for i := range o.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	s.Count += o.Count
}

// Quantile returns an upper bound for the p-quantile (0 < p <= 1): the
// upper bound of the bucket containing the p-th observation, or +Inf
// when it landed in the overflow bucket. Returns 0 for an empty
// histogram.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// FormatValue renders a sample value in exposition form. Infinities
// become +Inf/-Inf as the text format requires.
func FormatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// QuoteLabel renders a label value with exposition escaping
// (backslash, double quote, newline).
func QuoteLabel(v string) string {
	out := make([]byte, 0, len(v)+2)
	out = append(out, '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	out = append(out, '"')
	return string(out)
}

// ExpoWriter emits Prometheus text-format (version 0.0.4) families,
// writing each family's # HELP / # TYPE header exactly once.
type ExpoWriter struct {
	w      io.Writer
	headed map[string]bool
	err    error
}

// NewExpoWriter wraps w for exposition output.
func NewExpoWriter(w io.Writer) *ExpoWriter {
	return &ExpoWriter{w: w, headed: make(map[string]bool)}
}

func (e *ExpoWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// Head writes the # HELP and # TYPE lines for a family if not yet
// written. typ is "counter", "gauge", or "histogram".
func (e *ExpoWriter) Head(name, typ, help string) {
	if e.headed[name] {
		return
	}
	e.headed[name] = true
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Histogram writes a full _bucket/_sum/_count series for one labeled
// histogram snapshot. name is the family base name (without suffix);
// labels as in Sample.
func (e *ExpoWriter) Histogram(name, typHelp, labels string, s HistSnapshot) {
	e.Head(name, "histogram", typHelp)
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		e.printf("%s_bucket{%s%sle=%s} %d\n", name, labels, sep, QuoteLabel(FormatValue(b)), cum)
	}
	cum += s.Counts[len(s.Counts)-1]
	e.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		e.printf("%s_sum %s\n%s_count %d\n", name, FormatValue(s.Sum), name, cum)
	} else {
		e.printf("%s_sum{%s} %s\n%s_count{%s} %d\n", name, labels, FormatValue(s.Sum), name, labels, cum)
	}
}
