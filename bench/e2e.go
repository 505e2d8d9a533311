package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	vas "repro"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// datasetSeed fixes the served table: it is vasserve's default table (-seed
// 42), the database every run queries. --seed drives the op lists only. A
// table per seed would move every metric with the table's shape — across
// ten dataset seeds the K=1000 build takes 2.2 to 2.9 s and the sample's
// log-loss-ratio spans 0.59 to 1.40 — and bury the run-to-run differences
// the benchmark exists to show.
const datasetSeed = 42

// config sizes one invocation. The defaults are the benchmark; the smoke
// test shrinks them.
type config struct {
	n         int   // rows of the gps table
	sizes     []int // sample sizes built, ascending
	setupReps int   // set-ups per invocation; setup_s is their median
	reps      int   // repetitions of a serving workload
	restarts  int   // restarts timed after each repetition
	traceOps  int   // ops the layered twin replays
	floorOps  int   // /healthz requests behind server.http_floor_us
	warmOps   int   // ops sent, unmeasured, before the first repetition
	redos     int   // measured units an invocation may run again after the hypervisor disturbed them
	seconds   int   // --seconds: scales the op counts
	// rate is the throughput, in ops per second, each serving workload was
	// sized at on the reference machine (bench/README.md). The op count of
	// a repetition is rate × seconds ÷ repetitions: fixed by the flags,
	// never by how fast this run happens to be. firstLook is the op count
	// behind each of cold_build's cycles, whose number scales instead.
	rate      map[string]float64
	firstLook int
	seed      int64
	tmp       string // parent of the temporary directory of a pass
	root      string // that directory; runPass creates and removes it
	out       string // where the traced pass writes its spans; "" = nowhere
}

func defaultConfig() config {
	return config{
		n: 50_000, sizes: []int{100, 1000},
		setupReps: 3, reps: 3, restarts: 9, traceOps: 2000, floorOps: 2000, warmOps: 1500, redos: 3,
		seconds: 9, seed: 1, tmp: ".bench_build",
		rate: map[string]float64{
			wTileExplore: 3000,
			wQueryExact:  4000,
			wIngestMixed: 667,
		},
		firstLook: 3000,
	}
}

func (c config) opCount(workload string) int {
	if workload == wColdBuild {
		return c.firstLook
	}
	return max(50, int(c.rate[workload]*float64(c.seconds)/float64(c.reps)))
}

// cycles is how many build → save → restart cycles cold_build measures.
func (c config) cycles() int { return max(1, c.seconds/3) }

// bench is the state of one invocation.
type bench struct {
	cfg    config
	ndirs  int
	pts    []geom.Point
	world  *world
	snap   string // directory holding the set-up snapshot
	sample string // the sample table the budget resolves to
	data   *model // the table as loaded
	served *model // the sample as served over HTTP
	ref    *twin  // untraced twin over snap: the reference renderer

	attempted, failed int
	failures          []string // the first few, for stderr
	redone            int      // measured units run again: see calm
}

func newBench(cfg config) *bench {
	return &bench{cfg: cfg, sample: sampleTable(cfg.sizes[len(cfg.sizes)-1])}
}

// dir names a fresh directory under the pass's temporary root.
func (b *bench) dir(kind string) string {
	b.ndirs++
	return filepath.Join(b.cfg.root, fmt.Sprintf("%s-%d", kind, b.ndirs))
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// stealLimit is the share of the machine's CPU time the hypervisor may take
// away during a measured unit before the unit is measured again.
const stealLimit = 0.02

// calm runs measure, one set-up or one repetition, and runs it again — the
// same work from the same state — when the hypervisor took more than
// stealLimit of the machine's CPU time during it, at most cfg.redos times
// per invocation. The reference machine is two vCPUs of a shared host:
// while a neighbour is being served, /proc/stat's steal column rises to
// 7-17 % and a 2.2 s build takes 2.8-3.5 s. That is the host's weather, not
// the program's speed, and the one thing the benchmark can see coming.
// Where /proc/stat reports no steal nothing is ever measured twice.
func (b *bench) calm(measure func() error) error {
	for {
		steal0, total0 := cpuSteal()
		if err := measure(); err != nil {
			return err
		}
		steal1, total1 := cpuSteal()
		if b.redone >= b.cfg.redos || total1 == total0 ||
			float64(steal1-steal0) <= stealLimit*float64(total1-total0) {
			return nil
		}
		b.redone++
	}
}

// cpuSteal reads the machine's stolen and total CPU time, in ticks, from
// the first line of /proc/stat; zeros where there is none.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Columns 9 and 10, guest time, are already part of user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// build is the paper's offline step as cmd/vasserve performs it: load the
// table, build the samples with their density embedding, save a snapshot
// into dir. It returns the LoadTable + BuildSamples time.
func (b *bench) build(dir string, pts []geom.Point) (time.Duration, error) {
	cat := vas.NewCatalog()
	start := time.Now()
	if err := cat.LoadTable(tableName, pts); err != nil {
		return 0, err
	}
	if err := cat.BuildSamples(tableName, pts, b.cfg.sizes, true, vas.Options{Passes: 1}); err != nil {
		return 0, err
	}
	built := time.Since(start)
	return built, cat.SaveSnapshot(dir)
}

// setup generates the table, builds and saves, cfg.setupReps times over,
// and keeps the last snapshot. It returns each set-up's total time and the
// build share of it.
func (b *bench) setup(ctx context.Context) (setupS, buildS []float64, err error) {
	for i := 0; i < b.cfg.setupReps; i++ {
		if err := context.Cause(ctx); err != nil {
			return nil, nil, err
		}
		var total, built time.Duration
		err := b.calm(func() error {
			if b.snap != "" {
				os.RemoveAll(b.snap)
			}
			b.snap = b.dir("setup")
			start := time.Now()
			b.pts = dataset.GeolifeLike(dataset.GeolifeOptions{N: b.cfg.n, Seed: datasetSeed}).Points
			var err error
			built, err = b.build(b.snap, b.pts)
			total = time.Since(start)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, total.Seconds())
		buildS = append(buildS, built.Seconds())
	}
	b.world = newWorld(b.pts)
	b.data = newModel(b.pts)
	b.ref, err = loadTwin(b.snap, false, nil)
	return setupS, buildS, err
}

// tablesReply is the part of /v1/tables the checks read.
type tablesReply struct {
	Tables []struct {
		Name     string
		LiveRows int
		Bounds   *struct{ MinX, MinY, MaxX, MaxY float64 }
	}
}

// tableState asks the server for the table's live row count and extent.
func tableState(base string) (int, geom.Rect, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	body, err := fetch(c, base+"/v1/tables")
	if err != nil {
		return 0, geom.Rect{}, err
	}
	var r tablesReply
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, geom.Rect{}, err
	}
	for _, t := range r.Tables {
		if t.Name == tableName && t.Bounds != nil {
			return t.LiveRows, geom.Rect{MinX: t.Bounds.MinX, MinY: t.Bounds.MinY, MaxX: t.Bounds.MaxX, MaxY: t.Bounds.MaxY}, nil
		}
	}
	return 0, geom.Rect{}, fmt.Errorf("/v1/tables does not list %q with bounds", tableName)
}

// queryReply is the part of /v1/query and /v1/nearest answers the checks read.
type queryReply struct {
	Points    [][2]float64
	Sample    string
	Exact     bool
	Neighbors []struct{ Dist float64 }
}

// sampleLoss fetches the served sample through /v1/query, as a dashboard
// would, and scores it with the paper's loss. On cold_build it also checks
// the paper's claim that the VAS sample beats a uniform one of equal size.
func (b *bench) sampleLoss(againstUniform bool) (float64, error) {
	s, _, err := restart(b.snap)
	if err != nil {
		return 0, err
	}
	c := newClient()
	body, err := fetch(c, s.base+firstQuery)
	c.CloseIdleConnections()
	rows, bounds, stateErr := tableState(s.base)
	if err := errors.Join(err, stateErr, s.stop()); err != nil {
		return 0, err
	}
	b.attempted += 2
	if rows != len(b.pts) || bounds != b.world.bounds {
		b.fail("/v1/tables reports %d rows over %v, loaded %d over %v", rows, bounds, len(b.pts), b.world.bounds)
	}
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	if r.Sample != b.sample || len(r.Points) != b.cfg.sizes[len(b.cfg.sizes)-1] {
		b.fail("%s served %d points of %q, want the whole of %q", firstQuery, len(r.Points), r.Sample, b.sample)
	}
	sample := make([]geom.Point, len(r.Points))
	for i, p := range r.Points {
		sample[i] = geom.Pt(p[0], p[1])
	}
	b.served = newModel(sample)
	rep, err := vas.EvaluateLoss(b.pts, sample, 0, 1000, 1)
	if err != nil {
		return 0, err
	}
	if againstUniform {
		b.attempted++
		uni, _, err := vas.Uniform(b.pts, len(sample), 1)
		if err != nil {
			return 0, err
		}
		urep, err := vas.EvaluateLoss(b.pts, uni, 0, 1000, 1)
		if err != nil {
			return 0, err
		}
		if !(rep.LogLossRatio < urep.LogLossRatio) {
			b.fail("VAS log-loss-ratio %.4f is not below uniform's %.4f at K=%d", rep.LogLossRatio, urep.LogLossRatio, len(sample))
		}
	}
	return rep.LogLossRatio, nil
}

// ingestState is what ingest_mixed's final-state checks compare with.
type ingestState struct {
	final  *model // the table after every write of the op list
	checks []op
}

func newIngestState(g *gen, plan ingestPlan, data *model, ops []op) *ingestState {
	final := newModel(data.pts)
	for i := range ops {
		final.apply(&ops[i])
	}
	return &ingestState{final: final, checks: g.finalChecks(plan)}
}

// repStats is what one repetition measured.
type repStats struct {
	opsPerS, p50, p95, heapMB, restartMS float64
}

// repetition starts a stack from the snapshot in dir, drives ops at it,
// checks the outputs, measures what the process retains, stops the stack,
// and then times cfg.restarts restarts from dir. ing is non-nil for
// ingest_mixed, whose outputs are checked as a final state.
func (b *bench) repetition(ctx context.Context, dir string, ops []op, ing *ingestState) (repStats, error) {
	var st repStats
	res := make([]opResult, len(ops))
	heap0 := liveHeap()
	s, _, err := restart(dir)
	if err != nil {
		return st, err
	}
	wall := drive(ctx, s.base, ops, b.sample, res)
	quiesce(s.cat)
	if err := context.Cause(ctx); err != nil {
		return st, errors.Join(err, s.stop())
	}

	good := b.judge(s.base, ops, res, ing)
	lats := make([]float64, len(res))
	for i := range res {
		lats[i] = float64(res[i].lat) / 1e6
	}
	st.opsPerS = float64(good) / wall.Seconds()
	st.p50, st.p95 = percentile(lats, 0.50), percentile(lats, 0.95)
	st.heapMB = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)
	if err := s.stop(); err != nil {
		return st, err
	}

	var restarts []float64
	for i := 0; i < b.cfg.restarts; i++ {
		// Collect first: a restart is a few milliseconds, and a collection
		// of the previous one's garbage inside it would be half of that.
		runtime.GC()
		s, d, err := restart(dir)
		if err != nil {
			return st, err
		}
		b.attempted++
		if i == 0 && ing != nil {
			// Every acknowledged write is readable after the restart.
			b.checkFinal(s.base, ing)
		}
		if err := s.stop(); err != nil {
			return st, err
		}
		restarts = append(restarts, float64(d)/1e6)
	}
	st.restartMS = median(restarts)
	return st, nil
}

// judge counts the ops of one driven list as attempted, and as failed
// those the client saw fail and those whose kept reply disagrees with the
// model or the reference render; for ingest_mixed it then checks the final
// state. It returns how many ops were answered correctly and lets go of
// the kept replies.
func (b *bench) judge(base string, ops []op, res []opResult, ing *ingestState) (good int) {
	// A table that changes under the request has no model mid-run; only
	// sampled tiles, which never change, are compared.
	good = b.grade(ops, res, b.data, ing != nil)
	if ing != nil {
		b.checkFinal(base, ing)
	}
	return good
}

// grade is judge's loop: data is the model the kept replies are compared
// with, and tilesOnly leaves every kept reply but a tile's unchecked.
func (b *bench) grade(ops []op, res []opResult, data *model, tilesOnly bool) (good int) {
	for i := range res {
		b.attempted++
		msg := res[i].err
		if msg == "" && ops[i].check && (!tilesOnly || ops[i].kind == kTile) {
			msg = b.checkOp(&ops[i], res[i].body, data)
		}
		if msg != "" {
			b.fail("%s: %s", ops[i].path, msg)
		} else {
			good++
		}
		res[i].body = nil
	}
	return good
}

// checkOp compares the body of one checked reply with the naive model, or,
// for a tile, with the reference render. It returns "" when they agree.
func (b *bench) checkOp(o *op, body []byte, data *model) string {
	if o.kind == kTile {
		want, err := b.ref.do(o)
		if err != nil {
			return "reference render: " + err.Error()
		}
		if !bytes.Equal(want, body) {
			return fmt.Sprintf("tile differs from the reference render (%d vs %d bytes)", len(body), len(want))
		}
		return ""
	}
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return err.Error()
	}
	switch o.kind {
	case kNearest:
		want := data.nearest(o.pt, o.k)
		if len(r.Neighbors) != len(want) {
			return fmt.Sprintf("%d neighbours, model has %d", len(r.Neighbors), len(want))
		}
		for i, n := range r.Neighbors {
			if math.Abs(n.Dist-want[i]) > 1e-9*(1+want[i]) {
				return fmt.Sprintf("neighbour %d at distance %g, model says %g", i, n.Dist, want[i])
			}
		}
	case kQuerySampled:
		if want := b.served.count(o.rects, nil); r.Sample != b.sample || len(r.Points) != want {
			return fmt.Sprintf("%d points of %q, model has %d of %q", len(r.Points), r.Sample, want, b.sample)
		}
	default:
		if want := data.count(o.rects, o.filter); !r.Exact || len(r.Points) != want {
			return fmt.Sprintf("%d points (exact=%t), model has %d", len(r.Points), r.Exact, want)
		}
	}
	return ""
}

// checkFinal compares the quiesced table with the model: live rows, the
// extent, and the fixed check queries.
func (b *bench) checkFinal(base string, ing *ingestState) {
	b.attempted++
	rows, bounds, err := tableState(base)
	switch {
	case err != nil:
		b.fail("final state: %v", err)
	case rows != len(ing.final.pts) || bounds != b.world.bounds:
		b.fail("final state: %d live rows over %v, model has %d over %v", rows, bounds, len(ing.final.pts), b.world.bounds)
	}
	res := make([]opResult, len(ing.checks))
	drive(context.Background(), base, ing.checks, b.sample, res)
	b.grade(ing.checks, res, ing.final, false)
}

// warmUp sends the head of the op list at a throwaway stack. A vasserve
// runs for days; its first second — the runtime growing its heap, the
// kernel setting up loopback sockets — is not what a dashboard sees, and
// without this the first repetition is 10 to 15 % slower than the rest.
// The caches the workloads are about stay cold: every repetition starts a
// fresh catalog.
func (b *bench) warmUp(ctx context.Context, ops []op) error {
	dir := b.dir("warm")
	defer os.RemoveAll(dir)
	if err := copySnapshot(b.snap, dir); err != nil {
		return err
	}
	s, _, err := restart(dir)
	if err != nil {
		return err
	}
	head := ops[:min(len(ops), b.cfg.warmOps)]
	drive(ctx, s.base, head, b.sample, make([]opResult, len(head)))
	return s.stop()
}

// workloadOps generates the op list of a workload, and for ingest_mixed
// the final state its writes lead to.
func (b *bench) workloadOps(workload string) ([]op, *ingestState) {
	g := newGen(b.world, workload, b.cfg.seed)
	n := b.cfg.opCount(workload)
	switch workload {
	case wTileExplore:
		return g.tileSessions(n), nil
	case wQueryExact:
		return g.exactQueries(n), nil
	case wIngestMixed:
		plan := b.world.planIngest()
		ops := g.ingestMixed(n, plan)
		return ops, newIngestState(g, plan, b.data, ops)
	default:
		return g.firstLook(n), nil
	}
}

// runEndToEnd measures the end-to-end metrics of one workload, with no
// span recorder anywhere.
func runEndToEnd(ctx context.Context, cfg config, workload string) (*result, error) {
	b := newBench(cfg)
	setupS, buildS, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	lossRatio, err := b.sampleLoss(workload == wColdBuild)
	if err != nil {
		return nil, err
	}
	ops, ing := b.workloadOps(workload)
	if err := b.warmUp(ctx, ops); err != nil {
		return nil, err
	}

	var reps []repStats
	n := cfg.reps
	if workload == wColdBuild {
		n = cfg.cycles()
	}
	for r := 0; r < n; r++ {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		var st repStats
		var built time.Duration
		err := b.calm(func() error {
			dir := b.dir("rep")
			defer os.RemoveAll(dir)
			if workload == wColdBuild {
				// The measured thing: a fresh catalog builds and saves, a
				// new one restarts from the file and serves its first
				// dashboards.
				var err error
				if built, err = b.build(dir, b.pts); err != nil {
					return err
				}
			} else if err := copySnapshot(b.snap, dir); err != nil {
				return err
			}
			var err error
			st, err = b.repetition(ctx, dir, ops, ing)
			return err
		})
		if err != nil {
			return nil, err
		}
		if workload == wColdBuild {
			buildS = append(buildS, built.Seconds())
		}
		reps = append(reps, st)
	}

	res := newResult(workload, len(ops), opsHash(ops))
	res.Attempted, res.Failed, res.failures, res.redone = b.attempted, b.failed, b.failures, b.redone
	res.add("setup_s", setupS...)
	res.add("build_s", buildS...)
	res.add("sample_log_loss_ratio", lossRatio)
	for _, st := range reps {
		res.add("ops_per_s", st.opsPerS)
		res.add("p50_ms", st.p50)
		res.add("p95_ms", st.p95)
		res.add("live_heap_mb", st.heapMB)
		res.add("restart_ms", st.restartMS)
	}
	return res.finish(endToEnd), nil
}
