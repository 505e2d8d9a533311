package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not changed).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // index into the op list; -1 for the build
	Parent int    `json:"parent"` // index of the span that caused this one; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Shadow marks an inner call timed again, with identical arguments,
	// after the op that contains it: the public call around it
	// (Planner.PlanCtx) cannot be opened up. Its parent is the span of
	// that outer call, so "self = span minus children" still holds.
	Shadow bool `json:"shadow,omitempty"`

	children int64 // ns covered by child spans
}

func (s *span) dur() time.Duration  { return time.Duration(s.End - s.Start) }
func (s *span) self() time.Duration { return time.Duration(s.End - s.Start - s.children) }
func (s *span) layer() string       { return s.Name[:strings.IndexByte(s.Name, '.')] }

// recorder keeps spans and counts in memory; they are written out once, at
// exit. A nil *recorder records nothing, which is the untraced twin. It is
// used from one goroutine.
type recorder struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open spans
	op     int
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), op: -1, counts: make(map[string]int64)}
}

func (r *recorder) setOp(i int) {
	if r != nil {
		r.op = i
	}
}

// start opens a span under the innermost open one.
func (r *recorder) start(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: int64(time.Since(r.t0))})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	s := &r.spans[i]
	s.End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
	if s.Parent >= 0 {
		r.spans[s.Parent].children += s.End - s.Start
	}
}

// shadow opens a span that re-times an inner call of the closed span outer.
func (r *recorder) shadow(name string, outer int) int {
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: outer, Start: int64(time.Since(r.t0)), Shadow: true})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

func (r *recorder) rename(i int, name string) {
	if r != nil {
		r.spans[i].Name = name
	}
}

func (r *recorder) count(name string, n int) {
	if r != nil {
		r.counts[name] += int64(n)
	}
}

// durations returns the durations of every span called name, in
// microseconds.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfByLayer sums self time per layer over the op spans (Op >= 0).
func (r *recorder) selfByLayer() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i := range r.spans {
		if s := &r.spans[i]; s.Op >= 0 {
			out[s.layer()] += s.self()
		}
	}
	return out
}

// write dumps spans and counts as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(struct {
		Counts map[string]int64 `json:"counts"`
		Spans  []span           `json:"spans"`
	}{r.counts, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
