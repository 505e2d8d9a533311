package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	vas "repro"
)

// latencyClass is the class server.<class>.p50_ms files an op under.
func latencyClass(o *op, cache int8) string {
	switch o.kind {
	case kTile, kTileExact:
		if cache == cacheHit {
			return "tile_hit"
		}
		return "tile_miss"
	default:
		return kindNames[o.kind]
	}
}

// httpPass is what the per-layer pass learns from outside the server: one
// repetition of the workload over HTTP with the client-side latency kept per
// op class, a /metrics scrape and runtime.MemStats on either side, and the
// /healthz floor.
type httpPass struct {
	byClass       map[string][]float64 // ms
	all           []float64            // ms
	head          []float64            // us, the ops the twin replays
	wireBytes     int
	before, after map[string]float64
	mem0, mem1    runtime.MemStats
	floorUS       float64
}

func (b *bench) httpPass(ctx context.Context, dir string, ops []op, ing *ingestState) (_ *httpPass, err error) {
	s, _, err := restart(dir)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.stop()) }()
	p := &httpPass{byClass: make(map[string][]float64)}
	c := newClient()
	defer c.CloseIdleConnections()
	if p.before, err = scrape(c, s.base); err != nil {
		return nil, err
	}
	res := make([]opResult, len(ops))
	runtime.ReadMemStats(&p.mem0)
	drive(ctx, s.base, ops, b.sample, res)
	quiesce(s.cat)
	runtime.ReadMemStats(&p.mem1)
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	if p.after, err = scrape(c, s.base); err != nil {
		return nil, err
	}
	b.judge(s.base, ops, res, ing)
	for i := range res {
		ms := float64(res[i].lat) / 1e6
		class := latencyClass(&ops[i], res[i].cache)
		p.byClass[class] = append(p.byClass[class], ms)
		p.all = append(p.all, ms)
		if i < b.cfg.traceOps {
			p.head = append(p.head, ms*1e3)
		}
		p.wireBytes += res[i].bytes
	}
	// The loopback + net/http floor under which no latency means anything.
	floor := make([]float64, b.cfg.floorOps)
	for i := range floor {
		start := time.Now()
		if _, err := fetch(c, s.base+"/healthz"); err != nil {
			return nil, err
		}
		floor[i] = float64(time.Since(start)) / 1e3
	}
	p.floorUS = median(floor)
	return p, nil
}

// delta is the growth of a /metrics counter over the pass.
func (p *httpPass) delta(name string) float64 { return p.after[name] - p.before[name] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runPerLayer measures the per-layer metrics of one workload: a decomposed
// build, one HTTP repetition observed from outside, and a single-threaded
// replay of the workload's first ops on the layered twin with the span
// recorder on (and once more with it off, for the overhead).
func runPerLayer(ctx context.Context, cfg config, workload string) (*result, error) {
	b, rec := newBench(cfg), newRecorder()

	// The decomposed build is this pass's set-up.
	var err error
	b.snap = b.dir("twin")
	if b.pts, err = buildTwin(cfg, b.snap, rec); err != nil {
		return nil, err
	}
	b.world, b.data = newWorld(b.pts), newModel(b.pts)
	if b.ref, err = loadTwin(b.snap, false, rec); err != nil {
		return nil, err
	}
	b.ref.rec = nil // the reference renderer is not part of the trace
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	evalStart := time.Now()
	if _, err := b.sampleLoss(false); err != nil {
		return nil, err
	}
	evaluate := time.Since(evalStart)

	ops, ing := b.workloadOps(workload)
	dir := b.dir("rep")
	if err := copySnapshot(b.snap, dir); err != nil {
		return nil, err
	}
	hp, err := b.httpPass(ctx, dir, ops, ing)
	if err != nil {
		return nil, err
	}

	// Two twins from the same snapshot replay the same ops, one traced.
	head := ops[:min(cfg.traceOps, len(ops))]
	var totals [2]time.Duration
	var tracedDir string
	for i, r := range []*recorder{rec, nil} {
		d := b.dir("replay")
		if err := copySnapshot(b.snap, d); err != nil {
			return nil, err
		}
		tw, err := loadTwin(d, true, nil)
		if err != nil {
			return nil, err
		}
		tw.rec = r
		if totals[i], err = tw.replay(ctx, head); err != nil {
			return nil, err
		}
		quiesceJobs()
		if r != nil {
			tracedDir = d
		}
	}
	// What a restart would replay of the traced twin's log.
	tailRec := newRecorder()
	if _, err := loadTwin(tracedDir, false, tailRec); err != nil {
		return nil, err
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		if err := rec.write(filepath.Join(cfg.out, workload+"-spans.json")); err != nil {
			return nil, err
		}
	}

	res := newResult(workload, len(ops), opsHash(ops))
	res.Attempted, res.Failed, res.failures = b.attempted, b.failed, b.failures
	med := func(name string) float64 { return median(rec.durations(name)) }
	sum := func(name string) (s float64) {
		for _, d := range rec.durations(name) {
			s += d
		}
		return s
	}
	// The smallest and largest sample report under the k100 and k1000 names.
	smallS := med(fmt.Sprintf("vas.interchange_k%d", cfg.sizes[0])) / 1e6
	largeS := med(fmt.Sprintf("vas.interchange_k%d", cfg.sizes[len(cfg.sizes)-1])) / 1e6

	res.add("dataset.generate_ms", med("dataset.generate")/1e3)
	res.add("vas.interchange_k100_s", smallS)
	res.add("vas.interchange_k1000_s", largeS)
	res.add("vas.interchange_points_per_s", ratio(float64(cfg.n), largeS))
	res.add("vas.density_pass_s", sum("vas.density_pass")/1e6)
	res.add("vas.density_ns_per_point", ratio(sum("vas.density_pass")*1e3, float64(len(cfg.sizes)*cfg.n)))
	res.add("vas.objective_k1000", float64(rec.counts["vas.objective"]))
	// sampleLoss restarts, fetches and evaluates; the evaluation is all but
	// a few milliseconds of it.
	res.add("loss.evaluate_ms", float64(evaluate)/1e6)

	res.add("store.bulk_load_ms", med("store.bulk_load")/1e3)
	res.add("store.index_build_ms", med("store.index_build")/1e3)
	res.add("store.scan_rect_us", med("store.scan_rect"))
	res.add("store.scan_filtered_us", med("store.scan_filtered"))
	res.add("store.scan_rects_us", med("store.scan_rects"))
	res.add("store.points_gather_us", med("store.points_gather"))
	res.add("store.nearest_us", med("store.nearest"))
	res.add("store.rows_examined_per_result", ratio(float64(rec.counts["store.rows_examined"]), float64(rec.counts["store.rows_returned"])))
	res.add("store.cells_pruned_ratio", ratio(float64(rec.counts["store.cells_pruned"]), float64(rec.counts["store.cells_touched"])))
	probes, fallbacks := hp.delta("vasserve_store_index_probes_total"), hp.delta("vasserve_store_scan_fallbacks_total")
	res.add("store.probe_ratio", ratio(probes, probes+fallbacks))
	res.add("store.append_rows_us", med("store.append_rows"))
	res.add("store.delete_us", med("store.delete"))
	res.add("store.compactions", hp.delta("vasserve_store_compactions_total"))
	res.add("store.compaction_s_total", hp.delta("vasserve_store_compaction_seconds_total"))
	res.add("store.delta_rows_end", hp.after["vasserve_store_delta_rows"])
	res.add("store.tombstoned_rows_end", hp.after["vasserve_store_tombstoned_rows"])

	// Time per layer over the replayed ops: self time of the twin's own
	// spans, the shadow spans moving the store's share out of the planner's.
	var rootTotal, scanTotal float64
	var opTotals []float64
	for i := range rec.spans {
		s := &rec.spans[i]
		switch {
		case s.Op < 0:
		case s.Parent < 0:
			rootTotal += float64(s.dur())
			opTotals = append(opTotals, float64(s.dur())/1e3)
		case strings.HasPrefix(s.Name, "store.scan_") || s.Name == "store.nearest":
			scanTotal += float64(s.dur())
		}
	}
	self := rec.selfByLayer()
	res.add("store.scan_time_share", ratio(scanTotal, rootTotal))
	res.add("trace.attributed_ratio", 1-ratio(float64(self["op"]), rootTotal))
	res.add("trace.overhead_ratio", ratio(float64(totals[1]), float64(totals[0])))

	res.add("query.choose_us", med("query.choose"))
	res.add("query.plan_sampled_us", med("query.plan_sampled"))
	res.add("query.plan_exact_us", med("query.plan_exact"))
	var planSelf, missSelf []float64
	for i := range rec.spans {
		switch s := &rec.spans[i]; s.Name {
		case "query.plan_exact":
			planSelf = append(planSelf, float64(s.self())/1e3)
		case "tilecache.miss":
			missSelf = append(missSelf, float64(s.self())/1e3)
		}
	}
	res.add("query.plan_self_us", median(planSelf))

	res.add("render.plot_us", med("render.plot"))
	res.add("render.png_encode_us", med("render.png_encode"))
	res.add("render.png_bytes", ratio(float64(rec.counts["render.png_bytes"]), float64(rec.counts["render.tiles"])))

	hits, misses := hp.delta("vasserve_tile_cache_hits_total"), hp.delta("vasserve_tile_cache_misses_total")
	res.add("tilecache.hit_ratio", ratio(hits, hits+misses))
	res.add("tilecache.get_hit_ns", med("tilecache.hit")*1e3)
	res.add("tilecache.self_us", median(missSelf))
	res.add("tilecache.waits", hp.delta("vasserve_tile_cache_waits_total"))
	res.add("tilecache.evictions", hp.delta("vasserve_tile_cache_evictions_total"))
	res.add("tilecache.bytes_end", hp.after["vasserve_tile_cache_bytes"])

	for _, c := range latencyClasses {
		res.add("server."+c+".p50_ms", percentile(hp.byClass[c], 0.50))
		res.add("server."+c+".p95_ms", percentile(hp.byClass[c], 0.95))
	}
	res.add("server.p99_ms", percentile(hp.all, 0.99))
	res.add("server.max_ms", percentile(hp.all, 1))
	res.add("server.wire_bytes_per_op", ratio(float64(hp.wireBytes), float64(len(ops))))
	res.add("server.http_floor_us", hp.floorUS)
	res.add("server.http_self_us", median(hp.head)-median(opTotals))
	res.add("server.fail_ratio", ratio(float64(b.failed), float64(b.attempted)))
	for _, s := range stageNames {
		res.add("server.stage_"+s+"_s", hp.delta(`vasserve_stage_duration_seconds_sum{stage="`+s+`"}`))
	}

	res.add("snapshot.save_ms", med("snapshot.save")/1e3)
	res.add("snapshot.load_ms", med("snapshot.load")/1e3)
	if fi, err := os.Stat(filepath.Join(b.snap, vas.SnapshotFile)); err == nil {
		res.add("snapshot.base_bytes", float64(fi.Size()))
	}
	res.add("snapshot.tail_append_us", med("snapshot.tail_append"))
	res.add("snapshot.tail_replay_ms", median(tailRec.durations("snapshot.tail_replay"))/1e3)
	res.add("snapshot.tail_bytes_per_row", ratio(float64(tailBytes(tracedDir)), float64(tailRec.counts["snapshot.tail_rows"])))
	res.add("snapshot.resaves", hp.delta(`vasserve_job_duration_seconds_count{job="snapshot_save"}`))

	// The process is server and clients both; so are these.
	res.add("proc.alloc_mb_per_kop", ratio(float64(hp.mem1.TotalAlloc-hp.mem0.TotalAlloc)/(1<<20), float64(len(ops))/1e3))
	res.add("proc.gc_cycles", float64(hp.mem1.NumGC-hp.mem0.NumGC))
	res.add("proc.gc_pause_ms", float64(hp.mem1.PauseTotalNs-hp.mem0.PauseTotalNs)/1e6)
	return res.finish(perLayer), nil
}
