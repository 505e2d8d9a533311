package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// smokeConfig is the benchmark at a size a -race test run can afford (a
// tile render costs 50 ms under the race detector): a 5 000-row table,
// samples of 50 and 200 (which report under the k100 and k1000 metric
// names), a hundred ops or fewer per list.
func smokeConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.n, cfg.sizes = 5000, []int{50, 200}
	cfg.setupReps, cfg.reps, cfg.restarts = 1, 1, 1
	cfg.traceOps, cfg.floorOps, cfg.warmOps = 40, 50, 5
	cfg.seconds = 1
	cfg.rate = map[string]float64{wTileExplore: 60, wQueryExact: 300, wIngestMixed: 100}
	cfg.firstLook = 50
	cfg.tmp = t.TempDir()
	cfg.out = filepath.Join(cfg.tmp, "out")
	return cfg
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs both passes of every workload and checks the contract of
// the output: every metric of the pass, by its declared name and unit, in
// one parseable line; no failed op; and nothing left behind.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	goroutines := runtime.NumGoroutine()
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			res, err := runPass(context.Background(), cfg, w, traced, time.Minute)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: attempted %d, failed %d: %v", w, traced, res.Attempted, res.Failed, res.failures)
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(res.line()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s traced=%t: line does not parse: %v\n%s", w, traced, err, res.line())
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s traced=%t: line lacks a key: %s", w, traced, res.line())
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w, traced, len(line.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := line.Metrics[s.name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s traced=%t: metric %s missing", w, traced, s.name)
				case m.Unit != s.unit:
					t.Errorf("%s traced=%t: metric %s has unit %q, want %q", w, traced, s.name, m.Unit, s.unit)
				case !traced && *m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w, s.name)
				}
				if !metricName.MatchString(s.name) {
					t.Errorf("metric name %q is outside the contract", s.name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.out, w+"-spans.json")); err != nil {
					t.Errorf("%s: spans not written: %v", w, err)
				}
			}
		}
	}
	left, err := os.ReadDir(cfg.tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.Name() != "out" {
			t.Errorf("temporary directory %s left behind", e.Name())
		}
	}
	waitGoroutines(t, goroutines)
}

// waitGoroutines fails the test unless the goroutine count comes back to
// base: idle HTTP connections take a moment to notice they were closed.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, started with %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaxWall checks the watchdog's exit path: a pass cut short returns the
// watchdog's error, and its port, directory and goroutines are gone.
func TestMaxWall(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.rate[wQueryExact] = 50_000 // far more ops than the deadline allows
	goroutines := runtime.NumGoroutine()
	_, err := runPass(context.Background(), cfg, wQueryExact, false, 1500*time.Millisecond)
	if !errors.Is(err, errMaxWall) {
		t.Fatalf("got %v, want the watchdog's error", err)
	}
	if left, _ := filepath.Glob(filepath.Join(cfg.tmp, "run-*")); len(left) != 0 {
		t.Errorf("left behind: %v", left)
	}
	waitGoroutines(t, goroutines)
}

// TestStackStops checks that a stopped stack's port refuses connections.
func TestStackStops(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.root = cfg.tmp
	b := newBench(cfg)
	dir := b.dir("snap")
	pts := dataset.GeolifeLike(dataset.GeolifeOptions{N: cfg.n, Seed: datasetSeed}).Points
	if _, err := b.build(dir, pts); err != nil {
		t.Fatal(err)
	}
	s, _, err := restart(dir)
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(s.base, "http://")
	if c, err := net.Dial("tcp", addr); err != nil {
		t.Fatalf("running stack refuses connections: %v", err)
	} else {
		c.Close()
	}
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("%s still accepts connections after stop", addr)
	}
}

// TestSeededOps: the op lists depend on the seed and on nothing else.
func TestSeededOps(t *testing.T) {
	cfg := smokeConfig(t)
	pts := dataset.GeolifeLike(dataset.GeolifeOptions{N: cfg.n, Seed: datasetSeed}).Points
	hash := func(w string, seed int64) string {
		cfg.seed = seed
		b := newBench(cfg)
		b.pts, b.world, b.data = pts, newWorld(pts), newModel(pts)
		ops, _ := b.workloadOps(w)
		if len(ops) != cfg.opCount(w) {
			t.Errorf("%s: %d ops, want %d", w, len(ops), cfg.opCount(w))
		}
		return opsHash(ops)
	}
	seen := make(map[string]string)
	for _, w := range workloadNames {
		a, again, other := hash(w, 7), hash(w, 7), hash(w, 8)
		if a != again {
			t.Errorf("%s: seed 7 gave %s then %s", w, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w)
		}
		if prev, dup := seen[a]; dup {
			t.Errorf("%s and %s share an op list", w, prev)
		}
		seen[a] = w
	}
}

// TestBenchmarkFile: BENCHMARK.json declares exactly the workloads and
// metrics spec.go does, within the driver's limits.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads, want %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []benchmarkMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if s := want[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, m, s)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// TestCompare: verdicts, the exit signal, and the refusal.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bm := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bm, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"p95_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)
	write := func(name string, ops, p95 []float64, cpu string) string {
		rp := newReport(defaultConfig())
		rp.Header.CPU = cpu
		rp.Header.Ops["w"] = 100
		rp.EndToEnd["w"] = passReport{Attempted: 100, Metrics: map[string]metricValue{
			"ops_per_s": {Value: median(ops), Unit: "1/s", Reps: ops},
			"p95_ms":    {Value: median(p95), Unit: "ms", Reps: p95},
		}}
		path := filepath.Join(dir, name)
		if err := rp.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1000, 1010, 990}, []float64{2, 2.02, 1.98}, "x")
	same := write("b.json", []float64{1020, 1000, 1010}, []float64{2.05, 2, 2.1}, "x")
	slow := write("c.json", []float64{800, 810, 790}, []float64{2, 2.02, 1.98}, "x")
	noisy := write("d.json", []float64{1000, 1010, 990}, []float64{2, 3, 1.5}, "x")
	other := write("e.json", []float64{1000, 1010, 990}, []float64{2, 2.02, 1.98}, "y")

	var out bytes.Buffer
	if err := compare(&out, bm, base, same); err != nil {
		t.Errorf("same: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compare(&out, bm, base, slow); !errors.Is(err, errRegression) || !strings.Contains(out.String(), "regression") {
		t.Errorf("slow: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compare(&out, bm, base, noisy); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy: %v\n%s", err, out.String())
	}
	if err := compare(&out, bm, base, other); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("other CPU: %v", err)
	}
}
