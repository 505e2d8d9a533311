package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceStagesAndReport(t *testing.T) {
	tr := NewTrace("query")
	tr.SetTable("gps")
	sp := tr.StartSpan(StageProbe)
	time.Sleep(time.Millisecond)
	sp.End()
	sp = tr.StartSpan(StageProbe)
	sp.End()
	sp = tr.StartSpan(StageResidual)
	sp.End()
	tr.Annotate("filters", "2")
	tr.SetScan(map[string]int{"rowsExamined": 42})
	total := tr.Finish()
	if total <= 0 {
		t.Fatalf("total = %v", total)
	}
	if got := tr.StageCount(StageProbe); got != 2 {
		t.Fatalf("probe count = %d, want 2", got)
	}
	if tr.StageDuration(StageProbe) < time.Millisecond {
		t.Fatalf("probe duration = %v, want >= 1ms", tr.StageDuration(StageProbe))
	}
	rep := tr.Report()
	if rep.Table != "gps" || rep.Route != "query" {
		t.Fatalf("report identity = %q/%q", rep.Route, rep.Table)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("report stages = %d, want 2 (gather et al omitted)", len(rep.Stages))
	}
	if rep.StagesMillis <= 0 || rep.StagesMillis > rep.TotalMillis*1.5 {
		t.Fatalf("stagesMillis = %v vs total %v", rep.StagesMillis, rep.TotalMillis)
	}
	if len(rep.Annotations) != 1 || rep.Annotations[0].Key != "filters" {
		t.Fatalf("annotations = %+v", rep.Annotations)
	}
}

func TestSpanWithoutTraceIsAllocationFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		sp := StartSpan(ctx, StageProbe)
		sp.End()
		sp2 := FromContext(ctx).StartSpan(StageResidual)
		sp2.End()
	})
	if allocs != 0 {
		t.Fatalf("no-trace span path allocates %v per run, want 0", allocs)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(nil) != nil {
		t.Fatal("nil context should carry no trace")
	}
	tr := NewTrace("tile")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
	sp := StartSpan(ctx, StageRender)
	sp.End()
	if tr.StageCount(StageRender) != 1 {
		t.Fatal("ctx span did not record")
	}
}

func TestSlowLogThresholdAndRing(t *testing.T) {
	l := NewSlowLog(3, 10*time.Millisecond)
	mk := func(id int, d time.Duration) *Trace {
		tr := NewTrace("query")
		tr.ID = uint64(id)
		tr.SetTable("gps")
		tr.Total = d
		return tr
	}
	l.Record(mk(1, 5*time.Millisecond)) // below threshold: dropped
	for i := 2; i <= 6; i++ {
		l.Record(mk(i, time.Duration(i)*10*time.Millisecond))
	}
	rep := l.Report()
	if rep.Kept != 5 {
		t.Fatalf("kept = %d, want 5", rep.Kept)
	}
	if len(rep.Traces) != 3 {
		t.Fatalf("retained = %d, want 3", len(rep.Traces))
	}
	// Newest-first: ids 6, 5, 4.
	for i, want := range []uint64{6, 5, 4} {
		if rep.Traces[i].ID != want {
			t.Fatalf("trace[%d].ID = %d, want %d", i, rep.Traces[i].ID, want)
		}
	}
	if rep.Slowest == nil || rep.Slowest.ID != 6 {
		t.Fatalf("slowest = %+v, want id 6", rep.Slowest)
	}
	if len(rep.Tables) != 1 || rep.Tables[0].Count != 5 {
		t.Fatalf("tables = %+v", rep.Tables)
	}
	if rep.Tables[0].MaxMillis != 60 {
		t.Fatalf("max = %v ms, want 60", rep.Tables[0].MaxMillis)
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(8, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTrace("query")
				tr.SetTable("t")
				tr.Total = time.Duration(i+1) * time.Microsecond
				l.Record(tr)
				if i%50 == 0 {
					_ = l.Report()
				}
			}
		}()
	}
	wg.Wait()
	rep := l.Report()
	if rep.Kept != 1600 {
		t.Fatalf("kept = %d, want 1600", rep.Kept)
	}
	if len(rep.Traces) != 8 {
		t.Fatalf("retained = %d, want 8", len(rep.Traces))
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets)
	for i := 0; i < 99; i++ {
		h.Observe(0.0001)
	}
	h.Observe(0.04)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Quantile(0.5); got != 0.0001 {
		t.Fatalf("p50 = %v, want 0.0001", got)
	}
	if got := s.Quantile(0.999); got != 0.05 {
		t.Fatalf("p99.9 = %v, want bucket bound 0.05", got)
	}
	wantSum := 99*0.0001 + 0.04
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramOverflowQuantileIsInf(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets)
	h.Observe(10) // beyond 2.5s: overflow bucket
	if got := h.Snapshot().Quantile(0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 = %v, want +Inf", got)
	}
}

func TestHistogramEmptyQuantileZero(t *testing.T) {
	if got := NewHistogram(DefaultLatencyBuckets).Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
}

// TestHistogramConcurrentSnapshotConsistent drives concurrent observes
// while snapshotting; the snapshot invariant (count == sum of buckets,
// quantile never above +Inf spuriously) must hold because each bucket
// is loaded exactly once.
func TestHistogramConcurrentSnapshotConsistent(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.0005)
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		s := h.Snapshot()
		var total int64
		for _, c := range s.Counts {
			total += c
		}
		if total != s.Count {
			t.Fatalf("snapshot count %d != bucket sum %d", s.Count, total)
		}
		if q := s.Quantile(1.0); s.Count > 0 && q != 0.001 {
			t.Fatalf("quantile = %v under concurrency, want 0.001", q)
		}
	}
	close(stop)
	wg.Wait()
}

func TestExpoWriterHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	e := NewExpoWriter(&sb)
	e.Histogram("x_seconds", "test", `route="q"`, h.Snapshot())
	if err := e.err; err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{route="q",le="0.1"} 1`,
		`x_seconds_bucket{route="q",le="1"} 2`,
		`x_seconds_bucket{route="q",le="+Inf"} 3`,
		`x_seconds_sum{route="q"} 5.55`,
		`x_seconds_count{route="q"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestQuoteLabel(t *testing.T) {
	if got := QuoteLabel(`a"b\c` + "\n"); got != `"a\"b\\c\n"` {
		t.Fatalf("QuoteLabel = %s", got)
	}
}

func TestJobSet(t *testing.T) {
	s := NewJobSet()
	jt := s.Start("compaction")
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].Inflight != 1 {
		t.Fatalf("inflight snapshot = %+v", snap)
	}
	jt.End()
	snap = s.Snapshot()
	if snap[0].Inflight != 0 || snap[0].Hist.Count != 1 {
		t.Fatalf("post-end snapshot = %+v", snap)
	}
	// Zero JobTimer must be a no-op.
	JobTimer{}.End()
}
