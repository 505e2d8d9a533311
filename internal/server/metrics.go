package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// routeOther is the catch-all label for requests on routes that were
// not pre-registered: they get a real counter and histogram of their
// own instead of being silently folded into nothing, so per-route
// counts and latency observations always reconcile.
const routeOther = "other"

// routeMetrics is one route's request counter, error counters (4xx and
// 5xx) and latency histogram, plus its resilience counters: requests
// shed by admission control (split by reason) and requests that failed
// at the per-request deadline.
type routeMetrics struct {
	count     atomic.Int64
	errors4xx atomic.Int64
	errors5xx atomic.Int64
	latency   *obs.Histogram

	shedCapacity     atomic.Int64
	shedQueueTimeout atomic.Int64
	timeouts         atomic.Int64
}

// TailStatus is one base table's snapshot-tail durability state, fed by
// the catalog layer for the vasserve_tail_log_degraded gauge.
type TailStatus struct {
	Table    string
	Degraded bool
}

// metrics aggregates per-route request counters and latency histograms,
// per-stage duration histograms, and ingest counters for /metrics.
type metrics struct {
	routes   []string // sorted; includes routeOther
	requests map[string]*routeMetrics
	stages   [obs.NumStages]*obs.Histogram

	// Ingest counters for the /v1/append endpoint.
	ingestBatches atomic.Int64
	ingestRows    atomic.Int64

	// Retention counters for the /v1/delete endpoint.
	deleteRequests atomic.Int64
	deleteRows     atomic.Int64
}

func newMetrics(routes ...string) *metrics {
	m := &metrics{requests: make(map[string]*routeMetrics, len(routes)+1)}
	for _, r := range append(routes, routeOther) {
		if _, ok := m.requests[r]; ok {
			continue
		}
		m.requests[r] = &routeMetrics{latency: obs.NewHistogram(obs.DefaultLatencyBuckets)}
		m.routes = append(m.routes, r)
	}
	sort.Strings(m.routes)
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		m.stages[s] = obs.NewHistogram(obs.DefaultStageBuckets)
	}
	return m
}

func (m *metrics) record(route string, status int, d time.Duration) {
	rm, ok := m.requests[route]
	if !ok {
		rm = m.requests[routeOther]
	}
	rm.count.Add(1)
	rm.latency.ObserveDuration(d)
	switch {
	case status >= 500:
		rm.errors5xx.Add(1)
	case status >= 400:
		rm.errors4xx.Add(1)
	}
}

// recordShed counts one request rejected by admission control.
func (m *metrics) recordShed(route, reason string) {
	rm, ok := m.requests[route]
	if !ok {
		rm = m.requests[routeOther]
	}
	switch reason {
	case shedReasonQueueTimeout:
		rm.shedQueueTimeout.Add(1)
	default:
		rm.shedCapacity.Add(1)
	}
}

// recordTimeout counts one request that failed at the per-request
// deadline.
func (m *metrics) recordTimeout(route string) {
	rm, ok := m.requests[route]
	if !ok {
		rm = m.requests[routeOther]
	}
	rm.timeouts.Add(1)
}

// recordStages folds a finished trace into the per-stage histograms:
// one observation per stage the request actually touched, of that
// stage's accumulated duration within the request.
func (m *metrics) recordStages(tr *obs.Trace) {
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if tr.StageCount(s) > 0 {
			m.stages[s].ObserveDuration(tr.StageDuration(s))
		}
	}
}

// write emits the metrics in Prometheus text exposition format.
// coldSource/coldSeconds describe how the catalog was populated at
// startup (snapshot load vs full rebuild); empty means not recorded.
// tails carries per-table snapshot-tail durability, jobs the
// background-job stats (both may be nil).
func (m *metrics) write(w io.Writer, cache cacheStats, idx store.IndexStats, coldSource string, coldSeconds float64, tails []TailStatus, jobs []obs.JobStats) {
	ew := obs.NewExpoWriter(w)

	ew.Head("vasserve_requests_total", "counter", "Requests served, by route.")
	for _, r := range m.routes {
		fmt.Fprintf(w, "vasserve_requests_total{route=%q} %d\n", r, m.requests[r].count.Load())
	}
	ew.Head("vasserve_request_errors_total", "counter", "Responses with status >= 400, by route and class (4xx, 5xx).")
	for _, r := range m.routes {
		rm := m.requests[r]
		fmt.Fprintf(w, "vasserve_request_errors_total{route=%q,class=\"4xx\"} %d\n", r, rm.errors4xx.Load())
		fmt.Fprintf(w, "vasserve_request_errors_total{route=%q,class=\"5xx\"} %d\n", r, rm.errors5xx.Load())
	}

	ew.Head("vasserve_requests_shed_total", "counter", "Requests rejected by admission control before reaching a handler, by route and reason (capacity = in-flight cap and wait queue both full; queue_timeout = queued but no slot freed in time).")
	for _, r := range m.routes {
		rm := m.requests[r]
		fmt.Fprintf(w, "vasserve_requests_shed_total{route=%q,reason=%q} %d\n", r, shedReasonCapacity, rm.shedCapacity.Load())
		fmt.Fprintf(w, "vasserve_requests_shed_total{route=%q,reason=%q} %d\n", r, shedReasonQueueTimeout, rm.shedQueueTimeout.Load())
	}
	ew.Head("vasserve_request_timeouts_total", "counter", "Requests that failed at the per-request deadline (503 to the client), by route.")
	for _, r := range m.routes {
		fmt.Fprintf(w, "vasserve_request_timeouts_total{route=%q} %d\n", r, m.requests[r].timeouts.Load())
	}

	// Per-route latency histograms, plus process-wide p50/p99 derived
	// from their merged buckets (kept for dashboards that predate the
	// histograms; an overflow-bucket quantile reports +Inf).
	var merged obs.HistSnapshot
	for _, r := range m.routes {
		snap := m.requests[r].latency.Snapshot()
		merged.Merge(snap)
		ew.Histogram("vasserve_request_latency_seconds", "Request latency by route.", "route="+obs.QuoteLabel(r), snap)
	}
	ew.Head("vasserve_request_latency_p50_seconds", "gauge", "Upper bound of the median request latency across all routes.")
	fmt.Fprintf(w, "vasserve_request_latency_p50_seconds %g\n", merged.Quantile(0.50))
	ew.Head("vasserve_request_latency_p99_seconds", "gauge", "Upper bound of the 99th-percentile request latency across all routes.")
	fmt.Fprintf(w, "vasserve_request_latency_p99_seconds %g\n", merged.Quantile(0.99))

	for s := obs.Stage(0); s < obs.NumStages; s++ {
		ew.Histogram("vasserve_stage_duration_seconds", "Per-request accumulated stage duration, by stage.", "stage="+obs.QuoteLabel(s.String()), m.stages[s].Snapshot())
	}

	for _, j := range jobs {
		ew.Histogram("vasserve_job_duration_seconds", "Background job duration, by job.", "job="+obs.QuoteLabel(j.Name), j.Hist)
	}
	if len(jobs) > 0 {
		ew.Head("vasserve_job_inflight", "gauge", "Background job executions currently running, by job.")
		for _, j := range jobs {
			fmt.Fprintf(w, "vasserve_job_inflight{job=%q} %d\n", j.Name, j.Inflight)
		}
	}

	if len(tails) > 0 {
		ew.Head("vasserve_tail_log_degraded", "gauge", "1 when the table's snapshot tail log is failing writes: appends keep serving but are not durable until the next snapshot save.")
		for _, ts := range tails {
			v := 0
			if ts.Degraded {
				v = 1
			}
			fmt.Fprintf(w, "vasserve_tail_log_degraded{table=%q} %d\n", ts.Table, v)
		}
	}

	ew.Head("vasserve_tile_cache_hits_total", "counter", "Tile cache hits.")
	fmt.Fprintf(w, "vasserve_tile_cache_hits_total %d\n", cache.Hits)
	ew.Head("vasserve_tile_cache_misses_total", "counter", "Tile cache misses (renders).")
	fmt.Fprintf(w, "vasserve_tile_cache_misses_total %d\n", cache.Misses)
	ew.Head("vasserve_tile_cache_waits_total", "counter", "Tile lookups that piggybacked on an in-flight render.")
	fmt.Fprintf(w, "vasserve_tile_cache_waits_total %d\n", cache.Waits)
	ew.Head("vasserve_tile_cache_evictions_total", "counter", "Tiles evicted to stay within the byte budget.")
	fmt.Fprintf(w, "vasserve_tile_cache_evictions_total %d\n", cache.Evictions)
	ew.Head("vasserve_tile_cache_bytes", "gauge", "Encoded tile bytes currently cached.")
	fmt.Fprintf(w, "vasserve_tile_cache_bytes %d\n", cache.Bytes)
	ew.Head("vasserve_tile_cache_entries", "gauge", "Tiles currently cached.")
	fmt.Fprintf(w, "vasserve_tile_cache_entries %d\n", cache.Entries)
	ew.Head("vasserve_tile_cache_hit_ratio", "gauge", "Hits / (hits + misses).")
	fmt.Fprintf(w, "vasserve_tile_cache_hit_ratio %g\n", cache.HitRatio())

	ew.Head("vasserve_store_indexed_tables", "gauge", "Tables carrying at least one spatial index.")
	fmt.Fprintf(w, "vasserve_store_indexed_tables %d\n", idx.IndexedTables)
	ew.Head("vasserve_store_spatial_indexes", "gauge", "Spatial indexes across all tables.")
	fmt.Fprintf(w, "vasserve_store_spatial_indexes %d\n", idx.Indexes)
	ew.Head("vasserve_store_indexed_rows", "gauge", "Rows covered by spatial indexes.")
	fmt.Fprintf(w, "vasserve_store_indexed_rows %d\n", idx.IndexedRows)
	ew.Head("vasserve_store_index_cells", "gauge", "Pruning units across all spatial indexes: grid cells, or leaves for rtree indexes.")
	fmt.Fprintf(w, "vasserve_store_index_cells %d\n", idx.Cells)
	ew.Head("vasserve_store_index_probes_total", "counter", "Viewport scans answered by an index probe.")
	fmt.Fprintf(w, "vasserve_store_index_probes_total %d\n", idx.Probes)
	ew.Head("vasserve_nearest_requests_total", "counter", "k-nearest-neighbour queries answered.")
	fmt.Fprintf(w, "vasserve_nearest_requests_total %d\n", idx.NearestQueries)
	ew.Head("vasserve_store_scan_fallbacks_total", "counter", "Viewport scans answered by the linear fallback.")
	fmt.Fprintf(w, "vasserve_store_scan_fallbacks_total %d\n", idx.Fallbacks)
	ew.Head("vasserve_store_filtered_probes_total", "counter", "Index probes carrying residual predicates.")
	fmt.Fprintf(w, "vasserve_store_filtered_probes_total %d\n", idx.FilteredProbes)
	ew.Head("vasserve_store_zone_cells_touched_total", "counter", "Cells consulted by zone maps during filtered probes.")
	fmt.Fprintf(w, "vasserve_store_zone_cells_touched_total %d\n", idx.ZoneCellsTouched)
	ew.Head("vasserve_store_zone_cells_pruned_total", "counter", "Cells discarded wholesale by zone maps.")
	fmt.Fprintf(w, "vasserve_store_zone_cells_pruned_total %d\n", idx.ZoneCellsPruned)
	ew.Head("vasserve_store_zone_skips_total", "counter", "Zone checks skipped by the adaptive planner.")
	fmt.Fprintf(w, "vasserve_store_zone_skips_total %d\n", idx.ZoneSkips)
	ew.Head("vasserve_store_batched_rows_total", "counter", "Rows evaluated by the selection-vector batch kernels.")
	fmt.Fprintf(w, "vasserve_store_batched_rows_total %d\n", idx.BatchedRows)
	ew.Head("vasserve_store_tail_rows", "gauge", "Appended rows outside the base indexes.")
	fmt.Fprintf(w, "vasserve_store_tail_rows %d\n", idx.TailRows)
	ew.Head("vasserve_store_compactions_total", "counter", "Background index compactions completed.")
	fmt.Fprintf(w, "vasserve_store_compactions_total %d\n", idx.Compactions)
	ew.Head("vasserve_store_compaction_seconds_total", "counter", "Total time spent compacting indexes.")
	fmt.Fprintf(w, "vasserve_store_compaction_seconds_total %g\n", idx.CompactionSeconds)
	// Retention pressure: rows tombstoned but not yet physically
	// reclaimed (gauge — drops to zero after a reclaiming compaction),
	// plus the lifetime delete and reclaim totals.
	ew.Head("vasserve_store_tombstoned_rows", "gauge", "Rows tombstoned by deletes but not yet reclaimed by compaction.")
	fmt.Fprintf(w, "vasserve_store_tombstoned_rows %d\n", idx.TombstonedRows)
	ew.Head("vasserve_store_deleted_rows_total", "counter", "Rows tombstoned by deletes.")
	fmt.Fprintf(w, "vasserve_store_deleted_rows_total %d\n", idx.DeletedRows)
	ew.Head("vasserve_store_reclaimed_rows_total", "counter", "Tombstoned rows physically dropped by compactions.")
	fmt.Fprintf(w, "vasserve_store_reclaimed_rows_total %d\n", idx.ReclaimedRows)
	// Per-table ingest pressure: how many appended rows sit outside the
	// base index (tail) — visible before it ever shows up as latency.
	// Live vs dead splits the physical rows by tombstone state.
	ew.Head("vasserve_store_table_rows", "gauge", "Physical rows per table (tombstoned included).")
	ew.Head("vasserve_store_table_live_rows", "gauge", "Live (non-tombstoned) rows per table.")
	ew.Head("vasserve_store_table_dead_rows", "gauge", "Tombstoned rows awaiting reclaim, per table.")
	ew.Head("vasserve_store_table_tail_rows", "gauge", "Appended rows outside the base index, per table.")
	for _, ti := range idx.PerTable {
		fmt.Fprintf(w, "vasserve_store_table_rows{table=%q} %d\n", ti.Table, ti.Rows)
		fmt.Fprintf(w, "vasserve_store_table_live_rows{table=%q} %d\n", ti.Table, ti.LiveRows)
		fmt.Fprintf(w, "vasserve_store_table_dead_rows{table=%q} %d\n", ti.Table, ti.DeadRows)
		fmt.Fprintf(w, "vasserve_store_table_tail_rows{table=%q} %d\n", ti.Table, ti.TailRows)
	}
	// Index-backend identity and the grid-occupancy evidence behind it:
	// the backend gauge is 1 for the backend the table's primary index
	// actually uses (grid or rtree), the occupancy pair is what the build
	// decided from (row-weighted p99 cell population and its ratio to the
	// mean; skew >= 8 flips a build to the R-tree).
	if len(idx.PerTable) > 0 {
		ew.Head("vasserve_store_index_backend", "gauge", "1 for the spatial-index backend serving the table (grid or rtree).")
		for _, ti := range idx.PerTable {
			if ti.Backend != "" {
				fmt.Fprintf(w, "vasserve_store_index_backend{table=%q,backend=%q} 1\n", ti.Table, ti.Backend)
			}
		}
		ew.Head("vasserve_store_index_occupancy_p99", "gauge", "Row-weighted 99th-percentile grid-cell population, per table.")
		for _, ti := range idx.PerTable {
			if ti.Backend != "" {
				fmt.Fprintf(w, "vasserve_store_index_occupancy_p99{table=%q} %g\n", ti.Table, ti.CellOccupancyP99)
			}
		}
		ew.Head("vasserve_store_index_skew_ratio", "gauge", "Occupancy p99 over mean cell population, per table (>=8 selects the R-tree).")
		for _, ti := range idx.PerTable {
			if ti.Backend != "" {
				fmt.Fprintf(w, "vasserve_store_index_skew_ratio{table=%q} %g\n", ti.Table, ti.SkewRatio)
			}
		}
	}
	ew.Head("vasserve_ingest_batches_total", "counter", "Append batches accepted.")
	fmt.Fprintf(w, "vasserve_ingest_batches_total %d\n", m.ingestBatches.Load())
	ew.Head("vasserve_ingest_rows_total", "counter", "Rows appended.")
	fmt.Fprintf(w, "vasserve_ingest_rows_total %d\n", m.ingestRows.Load())
	ew.Head("vasserve_delete_requests_total", "counter", "Delete requests that tombstoned at least one row.")
	fmt.Fprintf(w, "vasserve_delete_requests_total %d\n", m.deleteRequests.Load())
	ew.Head("vasserve_delete_rows_total", "counter", "Rows tombstoned via /v1/delete.")
	fmt.Fprintf(w, "vasserve_delete_rows_total %d\n", m.deleteRows.Load())
	if coldSource != "" {
		ew.Head("vasserve_coldstart_seconds", "gauge", "Catalog population time at startup, by source (snapshot or rebuild).")
		fmt.Fprintf(w, "vasserve_coldstart_seconds{source=%q} %g\n", coldSource, coldSeconds)
	}

	writeRuntimeMetrics(ew, w)
}

// writeRuntimeMetrics emits Go runtime health: goroutines, heap, and
// GC pressure, under the conventional go_* names.
func writeRuntimeMetrics(ew *obs.ExpoWriter, w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ew.Head("go_goroutines", "gauge", "Number of goroutines.")
	fmt.Fprintf(w, "go_goroutines %d\n", runtime.NumGoroutine())
	ew.Head("go_memstats_heap_alloc_bytes", "gauge", "Heap bytes allocated and in use.")
	fmt.Fprintf(w, "go_memstats_heap_alloc_bytes %d\n", ms.HeapAlloc)
	ew.Head("go_memstats_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.")
	fmt.Fprintf(w, "go_memstats_heap_sys_bytes %d\n", ms.HeapSys)
	ew.Head("go_memstats_heap_objects", "gauge", "Allocated heap objects.")
	fmt.Fprintf(w, "go_memstats_heap_objects %d\n", ms.HeapObjects)
	ew.Head("go_memstats_sys_bytes", "gauge", "Total bytes obtained from the OS.")
	fmt.Fprintf(w, "go_memstats_sys_bytes %d\n", ms.Sys)
	ew.Head("go_gc_cycles_total", "counter", "Completed GC cycles.")
	fmt.Fprintf(w, "go_gc_cycles_total %d\n", ms.NumGC)
	ew.Head("go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	fmt.Fprintf(w, "go_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
}
