package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for no samples.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Reps are the values the median was taken over: repetitions, set-ups
	// or build cycles. Only the report file carries them.
	Reps []float64 `json:"reps,omitempty"`
}

// result is one pass of one workload. Its exported fields are the JSON
// object the driver reads from the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload string
	ops      int    // ops per repetition
	opsHash  string // fingerprint of the op list
	samples  map[string][]float64
	failures []string
	redone   int // measured units run again after the hypervisor disturbed them
}

func newResult(workload string, ops int, hash string) *result {
	return &result{workload: workload, ops: ops, opsHash: hash, samples: make(map[string][]float64)}
}

func (r *result) add(name string, vals ...float64) {
	r.samples[name] = append(r.samples[name], vals...)
}

// finish turns the samples into the metrics of specs: every metric listed,
// each the median of its samples, 0 when the workload produced none.
func (r *result) finish(specs []metricSpec) *result {
	r.Metrics = make(map[string]metricValue, len(specs))
	for _, s := range specs {
		r.Metrics[s.name] = metricValue{Value: median(r.samples[s.name]), Unit: s.unit}
	}
	for name := range r.samples {
		if _, ok := r.Metrics[name]; !ok {
			panic("bench: sample for undeclared metric " + name)
		}
	}
	r.Correct = r.Failed == 0
	return r
}

// line is the driver's JSON object.
func (r *result) line() string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(data)
}

// print writes the human-readable table of a pass.
func (r *result) print(w io.Writer, specs []metricSpec) {
	fmt.Fprintf(w, "%s: %d ops per repetition (op list %s), attempted %d, failed %d\n",
		r.workload, r.ops, r.opsHash, r.Attempted, r.Failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if r.redone > 0 {
		fmt.Fprintf(w, "  %d measured units were disturbed by the hypervisor (steal > %.0f %%) and measured again\n", r.redone, 100*stealLimit)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, s := range specs {
		m := r.Metrics[s.name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", s.name, m.Value, m.Unit, fmtReps(r.samples[s.name]))
	}
	tw.Flush()
}

func fmtReps(v []float64) string {
	if len(v) < 2 {
		return ""
	}
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// ---- the report file and -compare ----

// header says what a report was measured on; -compare refuses to set two
// reports side by side when these differ.
type header struct {
	CPU        string            `json:"cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Go         string            `json:"go"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Rows       int               `json:"rows"`
	Ops        map[string]int    `json:"ops"`
	OpsHash    map[string]string `json:"ops_hash"`
}

type passReport struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type report struct {
	Header   header                `json:"header"`
	EndToEnd map[string]passReport `json:"end_to_end"`
	PerLayer map[string]passReport `json:"per_layer"`
}

func newReport(cfg config) *report {
	return &report{
		Header: header{
			CPU: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: gitCommit(),
			Seed: cfg.seed, Seconds: cfg.seconds, Rows: cfg.n,
			Ops: make(map[string]int), OpsHash: make(map[string]string),
		},
		EndToEnd: make(map[string]passReport),
		PerLayer: make(map[string]passReport),
	}
}

func (rp *report) record(r *result, traced bool) {
	rp.Header.Ops[r.workload], rp.Header.OpsHash[r.workload] = r.ops, r.opsHash
	p := passReport{Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)}
	for name, m := range r.Metrics {
		m.Reps = r.samples[name]
		p.Metrics[name] = m
	}
	if traced {
		rp.PerLayer[r.workload] = p
	} else {
		rp.EndToEnd[r.workload] = p
	}
}

func (rp *report) write(path string) error {
	data, err := json.MarshalIndent(rp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git;
// "unknown" outside a repository.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return "unknown"
}

// benchmarkFile is the part of BENCHMARK.json -compare and the smoke test read.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchmarkMetric       `json:"end_to_end"`
	PerLayer  []benchmarkMetric       `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	return &bf, json.Unmarshal(data, &bf)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rp report
	if err := json.Unmarshal(data, &rp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rp, nil
}

var errRegression = errors.New("regression")

// side is one side of a comparison: the reports of one or more runs of one
// commit.
type side struct {
	paths   []string
	reports []*report
}

func readSide(list string) (*side, error) {
	sd := &side{paths: strings.Split(list, ",")}
	for _, p := range sd.paths {
		rp, err := readReport(p)
		if err != nil {
			return nil, err
		}
		sd.reports = append(sd.reports, rp)
	}
	return sd, nil
}

// machine is the part of a header two reports must share to be compared.
func (h header) machine() string {
	return fmt.Sprintf("%q GOMAXPROCS=%d %s rows=%d ops=%v", h.CPU, h.GOMAXPROCS, h.Go, h.Rows, h.Ops)
}

// metric returns the side's value of one workload × metric — the median of
// its runs' values — and its own spread as a share of that: the distance
// between the quartiles of the runs' values when there are four runs or
// more, else the range of the repetitions inside the runs.
func (sd *side) metric(workload, name string) (value, spread float64, failed int, err error) {
	var runs, reps []float64
	for i, rp := range sd.reports {
		pass := rp.EndToEnd[workload]
		m, ok := pass.Metrics[name]
		if !ok {
			return 0, 0, 0, fmt.Errorf("%s has no %s × %s", sd.paths[i], workload, name)
		}
		failed += pass.Failed
		runs = append(runs, m.Value)
		reps = append(reps, m.Reps...)
	}
	value = median(runs)
	switch {
	case value == 0:
	case len(runs) >= 4:
		spread = (percentile(runs, 0.75) - percentile(runs, 0.25)) / math.Abs(value)
	case len(reps) >= 2:
		spread = (slices.Max(reps) - slices.Min(reps)) / math.Abs(value)
	}
	return value, spread, failed, nil
}

// compare sets side b beside side a, each a comma-separated list of report
// files: for every workload and end-to-end metric, how far b's median is
// from a's in the worse direction, against the bound BENCHMARK.json fixes.
// A pairing whose own spread is wider than the bound on either side is
// unresolved, not unchanged. It returns errRegression when some pairing is
// worse by more than its bound, or an op failed.
func compare(w io.Writer, benchmarkPath, listA, listB string) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	a, err := readSide(listA)
	if err != nil {
		return err
	}
	b, err := readSide(listB)
	if err != nil {
		return err
	}
	for i, rp := range append(a.reports[1:], b.reports...) {
		if first := a.reports[0].Header; rp.Header.machine() != first.machine() {
			return fmt.Errorf("refusing to compare: %s was measured on %s, %s on %s",
				a.paths[0], first.machine(), append(a.paths[1:], b.paths...)[i], rp.Header.machine())
		}
	}
	fmt.Fprintf(w, "a: %d run(s), commit %.12s\nb: %d run(s), commit %.12s\n",
		len(a.reports), a.reports[0].Header.Commit, len(b.reports), b.reports[0].Header.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tspread a\tspread b\tverdict")
	regressed := false
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, sa, failedA, err := a.metric(wl.Name, m.Name)
			if err != nil {
				return err
			}
			vb, sb, failedB, err := b.metric(wl.Name, m.Name)
			if err != nil {
				return err
			}
			worse := (vb - va) / math.Abs(va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case failedA+failedB > 0:
				verdict, regressed = fmt.Sprintf("failed ops: a %d, b %d", failedA, failedB), true
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict, regressed = "regression", true
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, m.Name, va, vb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	tw.Flush()
	if regressed {
		return errRegression
	}
	return nil
}
