package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SlowLog retains the most recent finished traces whose total duration
// met a configurable threshold, plus the single slowest trace seen and
// a per-table latency summary. The threshold check is a single atomic
// load, so traffic below it never contends on the lock.
type SlowLog struct {
	thresholdNanos atomic.Int64

	mu      sync.Mutex
	ring    []*Trace // most recent kept traces; ring[next] is the oldest slot
	next    int
	kept    int64 // traces kept since process start
	slowest *Trace
	byTable map[string]*tableAgg
}

type tableAgg struct {
	count    int64
	sumNanos int64
	maxNanos int64
}

// NewSlowLog makes a slow log keeping at most capacity traces at or
// above threshold. capacity <= 0 defaults to 64.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 64
	}
	l := &SlowLog{
		ring:    make([]*Trace, 0, capacity),
		byTable: make(map[string]*tableAgg),
	}
	l.thresholdNanos.Store(int64(threshold))
	return l
}

// SetThreshold changes the minimum total duration a trace must reach
// to be retained. Safe to call concurrently with Record.
func (l *SlowLog) SetThreshold(d time.Duration) {
	l.thresholdNanos.Store(int64(d))
}

// Record offers a finished trace to the log. Traces under the
// threshold return after one atomic load without locking. Nil-safe on
// both receiver and trace.
func (l *SlowLog) Record(tr *Trace) {
	if l == nil || tr == nil {
		return
	}
	if int64(tr.Total) < l.thresholdNanos.Load() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, tr)
	} else {
		l.ring[l.next] = tr
		l.next = (l.next + 1) % len(l.ring)
	}
	l.kept++
	if l.slowest == nil || tr.Total > l.slowest.Total {
		l.slowest = tr
	}
	if tr.Table != "" {
		agg := l.byTable[tr.Table]
		if agg == nil {
			agg = &tableAgg{}
			l.byTable[tr.Table] = agg
		}
		agg.count++
		agg.sumNanos += int64(tr.Total)
		if int64(tr.Total) > agg.maxNanos {
			agg.maxNanos = int64(tr.Total)
		}
	}
}

// TableSummary aggregates kept traces for one base table.
type TableSummary struct {
	Table       string  `json:"table"`
	Count       int64   `json:"count"`
	TotalMillis float64 `json:"totalMillis"`
	AvgMillis   float64 `json:"avgMillis"`
	MaxMillis   float64 `json:"maxMillis"`
}

// SlowReport is the JSON body served at /debug/slow.
type SlowReport struct {
	ThresholdMillis float64        `json:"thresholdMillis"`
	Kept            int64          `json:"kept"`
	Traces          []TraceReport  `json:"traces"`
	Slowest         *TraceReport   `json:"slowest,omitempty"`
	Tables          []TableSummary `json:"tables"`
}

// Report snapshots the log: retained traces newest-first, the slowest
// trace overall, and per-table summaries sorted by table name.
func (l *SlowLog) Report() SlowReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := SlowReport{
		ThresholdMillis: float64(l.thresholdNanos.Load()) / float64(time.Millisecond),
		Kept:            l.kept,
		Traces:          make([]TraceReport, 0, len(l.ring)),
		Tables:          make([]TableSummary, 0, len(l.byTable)),
	}
	// Walk backwards from the newest slot so the report reads
	// newest-first.
	for i := 0; i < len(l.ring); i++ {
		idx := (l.next - 1 - i + 2*len(l.ring)) % len(l.ring)
		if len(l.ring) < cap(l.ring) {
			// Ring not yet wrapped: slots fill in order, newest is last.
			idx = len(l.ring) - 1 - i
		}
		r.Traces = append(r.Traces, l.ring[idx].Report())
	}
	if l.slowest != nil {
		rep := l.slowest.Report()
		r.Slowest = &rep
	}
	for table, agg := range l.byTable {
		sum := float64(agg.sumNanos) / float64(time.Millisecond)
		r.Tables = append(r.Tables, TableSummary{
			Table:       table,
			Count:       agg.count,
			TotalMillis: sum,
			AvgMillis:   sum / float64(agg.count),
			MaxMillis:   float64(agg.maxNanos) / float64(time.Millisecond),
		})
	}
	sort.Slice(r.Tables, func(i, j int) bool { return r.Tables[i].Table < r.Tables[j].Table })
	return r
}
