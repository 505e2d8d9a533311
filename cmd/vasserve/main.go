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
	"io"
	"net"
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
	// On SIGTERM/SIGINT run drains and saves; a second signal, once
	// ctx is done, kills at once.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "vasserve: %v\n", err)
		os.Exit(1)
	}
}

// run serves until ctx is done, then shuts down gracefully: it stops
// accepting, drains in-flight requests (bounded), stops the debug
// listener, waits for background compaction and re-save goroutines, and
// flushes one final snapshot so the next start replays nothing from the
// tail log. It prints the address it bound, so -addr may name port 0.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vasserve", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		n       = fs.Int("n", 200_000, "dataset rows")
		seed    = fs.Int64("seed", 42, "random seed")
		sizes   = fs.String("sizes", "100,1000,10000", "comma-separated sample sizes to prebuild")
		density = fs.Bool("density", true, "attach the §V density embedding to each sample")
		passes  = fs.Int("passes", 1, "Interchange passes per sample build")
		snapDir = fs.String("snapshot", "", "catalog snapshot directory: load when present and fresh, else build then save; appended batches land in its tail log")
		compact = fs.Float64("compact", vas.DefaultCompactFraction, "background-compaction threshold: appended-tail/indexed-rows fraction that triggers a merge (<=0 disables)")
		debug   = fs.String("debug-addr", "", "separate listen address for net/http/pprof profiling (e.g. localhost:6060); empty disables")
		slow    = fs.Duration("slow-threshold", 0, "record request traces slower than this in /debug/slow (0 = server default 250ms, negative = record everything)")

		reqTimeout = fs.Duration("request-timeout", 0, "per-request deadline on heavy routes: requests past it are canceled inside the scan kernels and answered 503 + Retry-After (0 disables)")
		inflight   = fs.Int("max-inflight", 0, "admission control: max concurrently executing requests per heavy route; excess waits in a bounded queue, the rest is shed 503/429 + Retry-After (0 disables)")
		queueDepth = fs.Int("queue-depth", 0, "admission control: waiters allowed per heavy route beyond -max-inflight before shedding (needs -max-inflight)")
		queueWait  = fs.Duration("queue-timeout", 250*time.Millisecond, "admission control: how long a queued request waits for an execution slot before being shed 429")
		readOnly   = fs.Bool("read-only-on-degrade", false, "reject appends/deletes with 503 while snapshot persistence is degraded, instead of accepting rows that cannot be made durable")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ks []int
	for _, s := range strings.Split(*sizes, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || k <= 0 {
			return fmt.Errorf("bad size %q", s)
		}
		ks = append(ks, k)
	}

	fmt.Fprintf(stdout, "generating %d-row geolife-like dataset...\n", *n)
	d := dataset.GeolifeLike(dataset.GeolifeOptions{N: *n, Seed: *seed})

	opt := vas.Options{Passes: *passes}
	start := time.Now()
	cat, source, err := loadOrBuild(stdout, *snapDir, d, ks, *density, *compact, opt)
	if err != nil {
		return err
	}
	cold := time.Since(start)
	cat.RecordColdStart(source, cold)
	fmt.Fprintf(stdout, "catalog ready via %s in %s\n", source, cold.Round(time.Millisecond))

	// HTTP-layer knobs must land before Handler() builds the server.
	cat.SetRequestTimeout(*reqTimeout)
	cat.SetSlowThreshold(*slow)
	cat.SetAdmissionLimits(*inflight, *queueDepth, *queueWait)
	cat.SetReadOnlyOnDegrade(*readOnly)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving on %s\n", ln.Addr())
	fmt.Fprintf(stdout, "  GET  /v1/tables\n")
	fmt.Fprintf(stdout, "  GET  /v1/query?table=gps&budget=1600ms&minx=..&miny=..&maxx=..&maxy=..\n")
	fmt.Fprintf(stdout, "  GET  /v1/nearest?table=gps&x=..&y=..&k=10\n")
	fmt.Fprintf(stdout, "  GET  /v1/tile/gps/{z}/{x}/{y}.png?size=256&budget=1600ms\n")
	fmt.Fprintf(stdout, "  POST /v1/append/gps  (JSON {\"points\": [[x,y],...]})\n")
	fmt.Fprintf(stdout, "  POST /v1/delete/gps  (JSON {\"rect\": {...}} | {\"filters\": [...]} | {\"all\": true})\n")
	fmt.Fprintf(stdout, "  GET  /healthz | GET /metrics | GET /debug/slow\n")
	handler := cat.Handler()
	var dbg *http.Server
	if *debug != "" {
		// pprof lives on its own listener so profiling endpoints are never
		// exposed on the serving address. net/http/pprof registered its
		// handlers on http.DefaultServeMux at import.
		fmt.Fprintf(stdout, "pprof on http://%s/debug/pprof/\n", *debug)
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
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener died on its own: ErrServerClosed is impossible
		// here, so this is always fatal.
		if dbg != nil {
			dbg.Close()
		}
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "shutting down: draining in-flight requests...")
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
			return fmt.Errorf("final snapshot: %w", err)
		}
		fmt.Fprintf(stdout, "final snapshot saved to %s\n", *snapDir)
	}
	fmt.Fprintln(stdout, "shutdown complete")
	return nil
}

// loadOrBuild restores the catalog from a fresh snapshot when one is
// available — replaying any ingest tail log, so appended rows survive
// the restart — and otherwise rebuilds from scratch (saving the result
// for the next start when a snapshot directory was given). The returned
// source is "snapshot" or "rebuild", for the cold-start metric.
func loadOrBuild(stdout io.Writer, snapDir string, d *dataset.Dataset, ks []int, density bool, compact float64, opt vas.Options) (*vas.Catalog, string, error) {
	if snapDir != "" {
		cat := vas.NewCatalog()
		cat.SetCompactFraction(compact)
		err := cat.LoadSnapshot(snapDir)
		switch {
		case err == nil && cat.SnapshotFresh("gps", d.Points, ks, density, opt):
			fmt.Fprintf(stdout, "loaded catalog snapshot from %s (no sample or index rebuild)\n", snapDir)
			return cat, "snapshot", nil
		case err == nil:
			fmt.Fprintf(stdout, "snapshot in %s is stale for these flags; rebuilding\n", snapDir)
		case os.IsNotExist(err):
			fmt.Fprintf(stdout, "no snapshot in %s yet; building\n", snapDir)
		default:
			fmt.Fprintf(os.Stderr, "vasserve: snapshot unusable (%v); rebuilding\n", err)
		}
	}
	// Rebuild path: a fresh catalog, so nothing from a stale or partial
	// snapshot can linger next to the new samples.
	cat := vas.NewCatalog()
	cat.SetCompactFraction(compact)
	if err := cat.LoadTable("gps", d.Points); err != nil {
		return nil, "", err
	}
	fmt.Fprintf(stdout, "building VAS samples %v (offline preprocessing)...\n", ks)
	if err := cat.BuildSamples("gps", d.Points, ks, density, opt); err != nil {
		return nil, "", err
	}
	if snapDir != "" {
		if err := cat.SaveSnapshot(snapDir); err != nil {
			fmt.Fprintf(os.Stderr, "vasserve: saving snapshot: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "saved catalog snapshot to %s\n", snapDir)
		}
	}
	return cat, "rebuild", nil
}
