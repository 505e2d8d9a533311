package main

// spec.go is the single list of workload and metric names. BENCHMARK.json
// repeats it for the driver; bench_test.go checks the two agree.

// Workload names. Every performance claim in this repository names one of
// these and one of the metrics below.
const (
	wTileExplore = "tile_explore"
	wQueryExact  = "query_exact"
	wIngestMixed = "ingest_mixed"
	wColdBuild   = "cold_build"
)

var workloadNames = []string{wTileExplore, wQueryExact, wIngestMixed, wColdBuild}

// metricSpec names one metric with its unit and which direction is better.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd lists what a user of vasserve sees. Every workload reports every
// one of them (the driver's contract), so each has a meaning on all four;
// bench/README.md says which workload each metric is the headline of.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"build_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p95_ms", "ms", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"restart_ms", "ms", "lower"},
	{"sample_log_loss_ratio", "log10", "lower"},
}

// latencyClasses are the op kinds the per-layer pass splits client-side
// latency by; tiles split again by the X-Cache response header.
var latencyClasses = []string{
	"tile_hit", "tile_miss", "query_exact", "query_filtered",
	"query_multirect", "query_sampled", "nearest", "append", "delete",
}

// stageNames are the labels of vasserve_stage_duration_seconds, in the
// order internal/obs declares them.
var stageNames = []string{"plan", "probe", "residual", "gather", "render", "encode", "cache"}

// perLayer lists the single-layer metrics, layer = module name. A value of
// 0 means the workload does not exercise that layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{"dataset.generate_ms", "ms", "lower"},

		{"vas.interchange_k100_s", "s", "lower"},
		{"vas.interchange_k1000_s", "s", "lower"},
		{"vas.interchange_points_per_s", "1/s", "higher"},
		{"vas.density_pass_s", "s", "lower"},
		{"vas.density_ns_per_point", "ns", "lower"},
		{"vas.objective_k1000", "count", "lower"},
		{"loss.evaluate_ms", "ms", "lower"},

		{"store.bulk_load_ms", "ms", "lower"},
		{"store.index_build_ms", "ms", "lower"},
		{"store.scan_rect_us", "us", "lower"},
		{"store.scan_filtered_us", "us", "lower"},
		{"store.scan_rects_us", "us", "lower"},
		{"store.points_gather_us", "us", "lower"},
		{"store.nearest_us", "us", "lower"},
		{"store.rows_examined_per_result", "ratio", "lower"},
		{"store.cells_pruned_ratio", "ratio", "higher"},
		{"store.probe_ratio", "ratio", "higher"},
		{"store.scan_time_share", "ratio", "lower"},
		{"store.append_rows_us", "us", "lower"},
		{"store.delete_us", "us", "lower"},
		{"store.compactions", "count", "lower"},
		{"store.compaction_s_total", "s", "lower"},
		{"store.delta_rows_end", "count", "lower"},
		{"store.tombstoned_rows_end", "count", "lower"},

		{"query.choose_us", "us", "lower"},
		{"query.plan_sampled_us", "us", "lower"},
		{"query.plan_exact_us", "us", "lower"},
		{"query.plan_self_us", "us", "lower"},

		{"render.plot_us", "us", "lower"},
		{"render.png_encode_us", "us", "lower"},
		{"render.png_bytes", "B", "lower"},

		{"tilecache.hit_ratio", "ratio", "higher"},
		{"tilecache.get_hit_ns", "ns", "lower"},
		{"tilecache.self_us", "us", "lower"},
		{"tilecache.waits", "count", "lower"},
		{"tilecache.evictions", "count", "lower"},
		{"tilecache.bytes_end", "B", "lower"},
	}
	for _, c := range latencyClasses {
		m = append(m,
			metricSpec{"server." + c + ".p50_ms", "ms", "lower"},
			metricSpec{"server." + c + ".p95_ms", "ms", "lower"})
	}
	m = append(m,
		metricSpec{"server.p99_ms", "ms", "lower"},
		metricSpec{"server.max_ms", "ms", "lower"},
		metricSpec{"server.wire_bytes_per_op", "B", "lower"},
		metricSpec{"server.http_floor_us", "us", "lower"},
		metricSpec{"server.http_self_us", "us", "lower"},
		metricSpec{"server.fail_ratio", "ratio", "lower"},
	)
	for _, s := range stageNames {
		m = append(m, metricSpec{"server.stage_" + s + "_s", "s", "lower"})
	}
	return append(m,
		metricSpec{"snapshot.save_ms", "ms", "lower"},
		metricSpec{"snapshot.load_ms", "ms", "lower"},
		metricSpec{"snapshot.base_bytes", "B", "lower"},
		metricSpec{"snapshot.tail_append_us", "us", "lower"},
		metricSpec{"snapshot.tail_replay_ms", "ms", "lower"},
		metricSpec{"snapshot.tail_bytes_per_row", "B", "lower"},
		metricSpec{"snapshot.resaves", "count", "lower"},

		metricSpec{"proc.alloc_mb_per_kop", "MiB", "lower"},
		metricSpec{"proc.gc_cycles", "count", "lower"},
		metricSpec{"proc.gc_pause_ms", "ms", "lower"},
		metricSpec{"trace.overhead_ratio", "ratio", "higher"},
		metricSpec{"trace.attributed_ratio", "ratio", "higher"},
	)
}
