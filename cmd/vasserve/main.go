// Command vasserve runs the HTTP visualization server over a VAS catalog:
// it loads a dataset into the in-memory store, builds VAS samples of
// several sizes offline (§II-D preprocessing), then serves budget-bound
// point queries and cached PNG map tiles.
//
//	vasserve -addr :8080 -n 200000 -sizes 100,1000,10000
//
//	curl 'localhost:8080/v1/tables'
//	curl 'localhost:8080/v1/query?table=gps&budget=1600ms'
//	curl -o tile.png 'localhost:8080/v1/tile/gps/2/1/1.png?size=256'
//	curl 'localhost:8080/metrics'
//
// With -snapshot DIR the offline cost is paid once: the first start
// builds the samples and saves a catalog snapshot into DIR, and every
// later start with the same data and build flags restores it — zero
// BuildSamples or index-build work on the serving path. A stale
// snapshot (different data, sizes, or options) or a corrupt file is
// detected and triggers a rebuild + re-save instead.
//
//	vasserve -n 1000000 -sizes 1000,10000 -snapshot /var/lib/vas
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"

	vas "repro"
)

// Listener hardening shared by the serving and debug servers: slow or
// stalled clients cannot hold a connection (and its handler goroutine)
// forever. WriteTimeout is generous because budget-bound tile renders
// legitimately take seconds on cold caches.
const (
	httpReadTimeout  = 15 * time.Second
	httpWriteTimeout = 60 * time.Second
	httpIdleTimeout  = 120 * time.Second
	shutdownGrace    = 30 * time.Second
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		n       = flag.Int("n", 200_000, "dataset rows")
		seed    = flag.Int64("seed", 42, "random seed")
		sizes   = flag.String("sizes", "100,1000,10000", "comma-separated sample sizes to prebuild")
		density = flag.Bool("density", true, "attach the §V density embedding to each sample")
		passes  = flag.Int("passes", 1, "Interchange passes per sample build")
		snapDir = flag.String("snapshot", "", "catalog snapshot directory: load when present and fresh, else build then save; appended batches land in its tail log")
		compact = flag.Float64("compact", vas.DefaultCompactFraction, "background-compaction threshold: appended-tail/indexed-rows fraction that triggers a merge (<=0 disables)")
		debug   = flag.String("debug-addr", "", "separate listen address for net/http/pprof profiling (e.g. localhost:6060); empty disables")
		slow    = flag.Duration("slow-threshold", 0, "record request traces slower than this in /debug/slow (0 = server default 250ms, negative = record everything)")

		reqTimeout = flag.Duration("request-timeout", 0, "per-request deadline on heavy routes: requests past it are canceled inside the scan kernels and answered 503 + Retry-After (0 disables)")
		inflight   = flag.Int("max-inflight", 0, "admission control: max concurrently executing requests per heavy route; excess waits in a bounded queue, the rest is shed 503/429 + Retry-After (0 disables)")
		queueDepth = flag.Int("queue-depth", 0, "admission control: waiters allowed per heavy route beyond -max-inflight before shedding (needs -max-inflight)")
		queueWait  = flag.Duration("queue-timeout", 250*time.Millisecond, "admission control: how long a queued request waits for an execution slot before being shed 429")
		readOnly   = flag.Bool("read-only-on-degrade", false, "reject appends/deletes with 503 while snapshot persistence is degraded, instead of accepting rows that cannot be made durable")
	)
	flag.Parse()
	var ks []int
	for _, s := range strings.Split(*sizes, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || k <= 0 {
			fmt.Fprintf(os.Stderr, "vasserve: bad size %q\n", s)
			os.Exit(2)
		}
		ks = append(ks, k)
	}

	fmt.Printf("generating %d-row geolife-like dataset...\n", *n)
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: *n, Seed: *seed})

	opt := vas.Options{Passes: *passes}
	start := time.Now()
	cat, source := loadOrBuild(*snapDir, d, ks, *density, *compact, opt)
	cold := time.Since(start)
	cat.RecordColdStart(source, cold)
	fmt.Printf("catalog ready via %s in %s\n", source, cold.Round(time.Millisecond))

	// HTTP-layer knobs must land before Handler() builds the server.
	cat.SetRequestTimeout(*reqTimeout)
	cat.SetSlowThreshold(*slow)
	cat.SetAdmissionLimits(*inflight, *queueDepth, *queueWait)
	cat.SetReadOnlyOnDegrade(*readOnly)

	fmt.Printf("serving on %s\n", *addr)
	fmt.Printf("  GET  /v1/tables\n")
	fmt.Printf("  GET  /v1/query?table=gps&budget=1600ms&minx=..&miny=..&maxx=..&maxy=..\n")
	fmt.Printf("  GET  /v1/nearest?table=gps&x=..&y=..&k=10\n")
	fmt.Printf("  GET  /v1/tile/gps/{z}/{x}/{y}.png?size=256&budget=1600ms\n")
	fmt.Printf("  POST /v1/append/gps  (JSON {\"points\": [[x,y],...]})\n")
	fmt.Printf("  POST /v1/delete/gps  (JSON {\"rect\": {...}} | {\"filters\": [...]} | {\"all\": true})\n")
	fmt.Printf("  GET  /healthz | GET /metrics | GET /debug/slow\n")
	handler := cat.Handler()
	var dbg *http.Server
	if *debug != "" {
		// pprof lives on its own listener so profiling endpoints are never
		// exposed on the serving address. net/http/pprof registered its
		// handlers on http.DefaultServeMux at import.
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *debug)
		dbg = &http.Server{
			Addr:              *debug,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       httpReadTimeout,
			WriteTimeout:      httpWriteTimeout,
			IdleTimeout:       httpIdleTimeout,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "vasserve: debug listener: %v\n", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}

	// Graceful shutdown: on SIGTERM/SIGINT stop accepting, drain
	// in-flight requests (bounded), stop the debug listener, wait for
	// background compaction/re-save goroutines, and flush one final
	// snapshot so the next start replays nothing from the tail log.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		// The listener died on its own (bad -addr, port in use, ...):
		// ErrServerClosed is impossible here, so this is always fatal.
		fail(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Println("shutting down: draining in-flight requests...")
	drainCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "vasserve: drain: %v\n", err)
	}
	if dbg != nil {
		if err := dbg.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "vasserve: debug drain: %v\n", err)
		}
	}
	cat.WaitBackground()
	if *snapDir != "" {
		if err := cat.SaveSnapshot(*snapDir); err != nil {
			fmt.Fprintf(os.Stderr, "vasserve: final snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("final snapshot saved to %s\n", *snapDir)
	}
	fmt.Println("shutdown complete")
}

// loadOrBuild restores the catalog from a fresh snapshot when one is
// available — replaying any ingest tail log, so appended rows survive
// the restart — and otherwise rebuilds from scratch (saving the result
// for the next start when a snapshot directory was given). The returned
// source is "snapshot" or "rebuild", for the cold-start metric.
func loadOrBuild(snapDir string, d *dataset.Dataset, ks []int, density bool, compact float64, opt vas.Options) (*vas.Catalog, string) {
	if snapDir != "" {
		cat := vas.NewCatalog()
		cat.SetCompactFraction(compact)
		err := cat.LoadSnapshot(snapDir)
		switch {
		case err == nil && cat.SnapshotFresh("gps", d.Points, ks, density, opt):
			fmt.Printf("loaded catalog snapshot from %s (no sample or index rebuild)\n", snapDir)
			return cat, "snapshot"
		case err == nil:
			fmt.Printf("snapshot in %s is stale for these flags; rebuilding\n", snapDir)
		case os.IsNotExist(err):
			fmt.Printf("no snapshot in %s yet; building\n", snapDir)
		default:
			fmt.Fprintf(os.Stderr, "vasserve: snapshot unusable (%v); rebuilding\n", err)
		}
	}
	// Rebuild path: a fresh catalog, so nothing from a stale or partial
	// snapshot can linger next to the new samples.
	cat := vas.NewCatalog()
	cat.SetCompactFraction(compact)
	if err := cat.LoadTable("gps", d.Points); err != nil {
		fail(err)
	}
	fmt.Printf("building VAS samples %v (offline preprocessing)...\n", ks)
	if err := cat.BuildSamples("gps", d.Points, ks, density, opt); err != nil {
		fail(err)
	}
	if snapDir != "" {
		if err := cat.SaveSnapshot(snapDir); err != nil {
			fmt.Fprintf(os.Stderr, "vasserve: saving snapshot: %v\n", err)
		} else {
			fmt.Printf("saved catalog snapshot to %s\n", snapDir)
		}
	}
	return cat, "rebuild"
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "vasserve: %v\n", err)
	os.Exit(1)
}
