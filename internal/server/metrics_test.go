package server

import (
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

func writeMetrics(m *metrics) string {
	var sb strings.Builder
	m.write(&sb, cacheStats{}, store.IndexStats{}, "", 0, nil, nil)
	return sb.String()
}

func TestRecordUnknownRouteBucketsUnderOther(t *testing.T) {
	m := newMetrics("query")
	m.record("query", 200, time.Millisecond)
	m.record("no-such-route", 200, time.Millisecond)
	m.record("another-stranger", 500, time.Millisecond)
	out := writeMetrics(m)
	for _, want := range []string{
		`vasserve_requests_total{route="query"} 1`,
		`vasserve_requests_total{route="other"} 2`,
		`vasserve_request_latency_seconds_count{route="other"} 2`,
		`vasserve_request_errors_total{route="other",class="4xx"} 0`,
		`vasserve_request_errors_total{route="other",class="5xx"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, grepLines(out, "requests_total"))
		}
	}
}

func TestWriteReportsQuantilesFromHistograms(t *testing.T) {
	m := newMetrics("query")
	// 90 fast requests, 10 slow: p50 resolves to the fast bucket bound,
	// p99 (nearest-rank) to the slow one's.
	for i := 0; i < 90; i++ {
		m.record("query", 200, 80*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.record("query", 200, 40*time.Millisecond)
	}
	out := writeMetrics(m)
	if !strings.Contains(out, "vasserve_request_latency_p50_seconds 0.0001") {
		t.Errorf("p50 line missing or wrong:\n%s", grepLines(out, "p50"))
	}
	if !strings.Contains(out, "vasserve_request_latency_p99_seconds 0.05") {
		t.Errorf("p99 line missing or wrong:\n%s", grepLines(out, "p99"))
	}
	if !strings.Contains(out, `vasserve_request_latency_seconds_bucket{route="query",le="+Inf"} 100`) {
		t.Errorf("+Inf bucket missing:\n%s", grepLines(out, `route="query"`))
	}
}

func TestWriteOverflowReportsInf(t *testing.T) {
	m := newMetrics("query")
	// Every observation beyond the last tracked bound: the quantile has
	// no upper bound and must say so, not silently cap at 2.5s.
	m.record("query", 200, 30*time.Second)
	out := writeMetrics(m)
	if !strings.Contains(out, "vasserve_request_latency_p99_seconds +Inf") {
		t.Errorf("metrics output hides tail saturation:\n%s", grepLines(out, "p99"))
	}
}

func TestWriteEmptyHistogramQuantilesZero(t *testing.T) {
	out := writeMetrics(newMetrics("query"))
	if !strings.Contains(out, "vasserve_request_latency_p50_seconds 0\n") {
		t.Errorf("empty p50 should be 0:\n%s", grepLines(out, "p50"))
	}
}

func TestWriteTailStatusAndJobs(t *testing.T) {
	m := newMetrics("query")
	jobs := obs.NewJobSet()
	jobs.Start("compaction").End()
	var sb strings.Builder
	m.write(&sb, cacheStats{}, store.IndexStats{}, "snapshot", 1.5,
		[]TailStatus{{Table: "gps", Degraded: true}, {Table: "taxi"}}, jobs.Snapshot())
	out := sb.String()
	for _, want := range []string{
		`vasserve_tail_log_degraded{table="gps"} 1`,
		`vasserve_tail_log_degraded{table="taxi"} 0`,
		`vasserve_job_duration_seconds_count{job="compaction"} 1`,
		`vasserve_job_inflight{job="compaction"} 0`,
		`vasserve_coldstart_seconds{source="snapshot"} 1.5`,
		"go_goroutines ",
		"go_gc_pause_seconds_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	checkExposition(t, out)
}

func TestExpositionWellFormed(t *testing.T) {
	m := newMetrics("tables", "query", "tile", "append", "healthz", "metrics", "debug")
	m.record("query", 200, time.Millisecond)
	m.record("tile", 404, 3*time.Second)
	m.record("stranger", 200, time.Microsecond)
	tr := obs.NewTrace("query")
	sp := tr.StartSpan(obs.StageProbe)
	sp.End()
	tr.Finish()
	m.recordStages(tr)
	var sb strings.Builder
	m.write(&sb, cacheStats{Hits: 3, Misses: 1}, store.IndexStats{
		IndexedTables: 2, Indexes: 2,
		PerTable: []store.TableIngestStats{{Table: "gps", Rows: 10}},
	}, "rebuild", 0.25, []TailStatus{{Table: "gps"}}, nil)
	checkExposition(t, sb.String())
}

// grepLines returns the lines of out containing substr, for focused
// test failure messages.
func grepLines(out, substr string) string {
	var hits []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, substr) {
			hits = append(hits, line)
		}
	}
	return strings.Join(hits, "\n")
}

// ---- strict exposition-format checker ----

var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseLabels parses `k="v",k2="v2"` with exposition escaping,
// rejecting malformed quoting, bad escapes, and duplicate names.
func parseLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(s) {
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return nil, fmt.Errorf("label pair without '=' in %q", s[i:])
		}
		name := s[i : i+j]
		if name == "" || strings.ContainsAny(name, `{}", `) {
			return nil, fmt.Errorf("bad label name %q", name)
		}
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("label %q value not quoted", name)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("label %q: trailing backslash", name)
				}
				switch s[i+1] {
				case '\\', '"':
					val.WriteByte(s[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %q: bad escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("label %q: unterminated value", name)
		}
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %q", name)
		}
		labels[name] = val.String()
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("expected ',' after label %q, got %q", name, s[i:])
			}
			i++
		}
	}
	return labels, nil
}

// labelKey canonicalizes a label set (minus one dropped label) into a
// sorted, comparable string.
func labelKey(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == drop {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%q,", k, labels[k])
	}
	return sb.String()
}

// checkExposition parses a full Prometheus text-format body and
// enforces: every line parses, series are unique (name + sorted
// labels), label quoting is valid, and for each histogram family the
// cumulative buckets are monotone, end in +Inf, agree with the _count
// series, and come with a _sum.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	types := make(map[string]string)
	seen := make(map[string]bool)
	var samples []promSample
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[3] == "" {
				t.Errorf("line %d: malformed comment %q", ln+1, line)
				continue
			}
			if parts[1] == "TYPE" {
				if prev, ok := types[parts[2]]; ok {
					t.Errorf("line %d: duplicate TYPE for %s (was %s)", ln+1, parts[2], prev)
				}
				types[parts[2]] = parts[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unknown comment %q", ln+1, line)
			continue
		}
		mt := sampleRe.FindStringSubmatch(line)
		if mt == nil {
			t.Errorf("line %d: unparsable sample %q", ln+1, line)
			continue
		}
		labels := map[string]string{}
		if mt[2] != "" {
			var err error
			labels, err = parseLabels(mt[2])
			if err != nil {
				t.Errorf("line %d: %v", ln+1, err)
				continue
			}
		}
		v, err := strconv.ParseFloat(mt[3], 64)
		if err != nil && mt[3] != "+Inf" && mt[3] != "-Inf" && mt[3] != "NaN" {
			t.Errorf("line %d: bad value %q", ln+1, mt[3])
			continue
		}
		id := mt[1] + "{" + labelKey(labels, "") + "}"
		if seen[id] {
			t.Errorf("line %d: duplicate series %s", ln+1, id)
		}
		seen[id] = true
		samples = append(samples, promSample{name: mt[1], labels: labels, value: v})
	}

	// Histogram invariants per (family, labels-minus-le) group.
	type histGroup struct {
		les    []float64
		counts map[float64]float64
		count  *float64
		sum    bool
	}
	groups := make(map[string]map[string]*histGroup) // family -> label key -> group
	for fam, typ := range types {
		if typ == "histogram" {
			groups[fam] = make(map[string]*histGroup)
		}
	}
	getGroup := func(fam string, labels map[string]string) *histGroup {
		key := labelKey(labels, "le")
		g := groups[fam][key]
		if g == nil {
			g = &histGroup{counts: make(map[float64]float64)}
			groups[fam][key] = g
		}
		return g
	}
	for _, s := range samples {
		for fam := range groups {
			switch s.name {
			case fam + "_bucket":
				le, ok := s.labels["le"]
				if !ok {
					t.Errorf("%s_bucket without le label", fam)
					continue
				}
				lv := math.Inf(1)
				if le != "+Inf" {
					var err error
					lv, err = strconv.ParseFloat(le, 64)
					if err != nil {
						t.Errorf("%s_bucket: bad le %q", fam, le)
						continue
					}
				}
				g := getGroup(fam, s.labels)
				g.les = append(g.les, lv)
				g.counts[lv] = s.value
			case fam + "_count":
				v := s.value
				getGroup(fam, s.labels).count = &v
			case fam + "_sum":
				getGroup(fam, s.labels).sum = true
			}
		}
	}
	for fam, byLabels := range groups {
		if len(byLabels) == 0 {
			t.Errorf("histogram family %s declared but has no series", fam)
		}
		for key, g := range byLabels {
			if len(g.les) == 0 {
				t.Errorf("histogram %s{%s}: no buckets", fam, key)
				continue
			}
			sort.Float64s(g.les)
			if !math.IsInf(g.les[len(g.les)-1], 1) {
				t.Errorf("histogram %s{%s}: buckets do not end in +Inf", fam, key)
			}
			prev := math.Inf(-1)
			last := 0.0
			for _, le := range g.les {
				if le == prev {
					t.Errorf("histogram %s{%s}: duplicate bucket le=%g", fam, key, le)
				}
				if g.counts[le] < last {
					t.Errorf("histogram %s{%s}: bucket le=%g count %g < previous %g", fam, key, le, g.counts[le], last)
				}
				last = g.counts[le]
				prev = le
			}
			if g.count == nil {
				t.Errorf("histogram %s{%s}: missing _count", fam, key)
			} else if *g.count != last {
				t.Errorf("histogram %s{%s}: _count %g != +Inf bucket %g", fam, key, *g.count, last)
			}
			if !g.sum {
				t.Errorf("histogram %s{%s}: missing _sum", fam, key)
			}
		}
	}
}

// TestMetricsDocMatchesExposition keeps docs/METRICS.md and /metrics in
// step: a handler is brought into every state that makes a conditional
// series appear — a tail-status source (what a catalog bound to a
// snapshot directory wires in), a background job run, a recorded cold
// start, an indexed
// table, and one request on every route — and every vasserve_* or go_*
// family the scrape emits must be named in the doc, and every family
// the doc names must be emitted.
func TestMetricsDocMatchesExposition(t *testing.T) {
	s := newTestServerWithConfig(t, Config{
		TailStatus: func() []TailStatus { return []TailStatus{{Table: "base"}} },
	})
	s.SetColdStart("snapshot", time.Second)
	base, err := s.st.Table("base")
	if err != nil {
		t.Fatal(err)
	}
	if err := base.IndexOn("x", "y"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ method, url, body string }{
		{"GET", "/v1/tables", ""},
		{"GET", "/v1/query?table=base&exact=true", ""},
		{"GET", "/v1/nearest?table=base&x=100&y=100&k=5", ""},
		{"GET", "/v1/tile/base/0/0/0", ""},
		{"POST", "/v1/append/base", `{"points": [[500, 500], [501, 501]]}`},
		{"POST", "/v1/delete/base", `{"rect": {"minX": 0, "minY": 0, "maxX": 9, "maxY": 9}}`},
		{"GET", "/healthz", ""},
		{"GET", "/metrics", ""},
		{"GET", "/debug/slow", ""},
		{"GET", "/no-such-route", ""},
	} {
		var rec *httptest.ResponseRecorder
		if c.method == "POST" {
			rec = postJSON(t, s, c.url, c.body)
		} else {
			rec = get(t, s, c.url)
		}
		if rec.Code >= 500 {
			t.Fatalf("%s %s = %d: %s", c.method, c.url, rec.Code, rec.Body)
		}
	}
	// The appended rows sit in the tail; compacting them runs the
	// store's background job, which the job series report.
	base.Compact()

	emitted := map[string]bool{}
	for _, line := range strings.Split(get(t, s, "/metrics").Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			emitted[f[2]] = true
		}
	}
	doc, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`\b(?:vasserve|go)_[a-z0-9_]+`).FindAllString(string(doc), -1) {
		documented[name] = true
	}
	for name := range emitted {
		if !documented[name] {
			t.Errorf("/metrics emits %s, which docs/METRICS.md does not list", name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			t.Errorf("docs/METRICS.md lists %s, which /metrics does not emit", name)
		}
	}
}
