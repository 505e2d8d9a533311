// Command bench is this repository's benchmark: four seeded workloads
// against a vasserve stack hosted inside this process, end-to-end metrics
// measured with no recorder anywhere, and per-layer metrics measured from
// outside the program by a traced pass. See README.md beside this file.
//
//	bench -workload tile_explore -seed 1 -seconds 12 -trace 0   one pass; the driver's contract
//	bench -workload all -out DIR                                 both passes of all four, DIR/report.json
//	bench -compare a.json b.json                                 verdicts against BENCHMARK.json's bounds
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// Exit codes beyond 0 and 1 (a regression found by -compare).
const (
	exitUsage   = 2
	exitFailure = 3 // set-up, I/O, the -max-wall watchdog, a signal
)

// hardExitGrace is how long after -max-wall the orderly unwinding may take
// (a sample build cannot be interrupted) before the process removes its
// temporary directory and exits anyway.
const hardExitGrace = 20 * time.Second

var errMaxWall = errors.New("-max-wall exceeded")

func main() {
	cfg := defaultConfig()
	var (
		workload = flag.String("workload", "", "tile_explore, query_exact, ingest_mixed, cold_build, or all")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, recorder off; 1: per-layer metrics from the traced pass")
		doCmp    = flag.Bool("compare", false, "compare two sides, each one report file or a comma-separated list: bench -compare a.json b1.json,b2.json")
		bmFile   = flag.String("benchmark", "BENCHMARK.json", "the file -compare reads the bounds from")
		maxWall  = flag.Duration("max-wall", 170*time.Second, "self-imposed deadline per pass; on expiry everything is stopped and removed and the exit code is 3")
	)
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the op lists")
	flag.IntVar(&cfg.seconds, "seconds", cfg.seconds, "nominal measured seconds; scales the op counts")
	flag.StringVar(&cfg.out, "out", "", "directory for report.json (-workload all) and the traced pass's spans; nothing is written when empty")
	flag.StringVar(&cfg.tmp, "tmp", cfg.tmp, "parent of the temporary directory the run creates and removes")
	flag.Parse()

	if *doCmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json[,a2.json...] b.json[,b2.json...]")
			os.Exit(exitUsage)
		}
		switch err := compare(os.Stdout, *bmFile, flag.Arg(0), flag.Arg(1)); {
		case errors.Is(err, errRegression):
			os.Exit(1)
		case err != nil:
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(exitUsage)
		}
		return
	}
	if flag.NArg() != 0 || cfg.seconds < 1 || (*trace != 0 && *trace != 1) ||
		(*workload != "all" && !slices.Contains(workloadNames, *workload)) {
		flag.Usage()
		os.Exit(exitUsage)
	}

	// SIGINT and SIGTERM unwind the same way the watchdog does: the stack
	// stops, the temporary directory goes, and then the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var err error
	if *workload == "all" {
		// Both passes, unless -trace was given and picks one.
		passes := []bool{false, true}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "trace" {
				passes = []bool{*trace == 1}
			}
		})
		err = runAll(ctx, cfg, passes, *maxWall)
	} else {
		var res *result
		if res, err = runPass(ctx, cfg, *workload, *trace == 1, *maxWall); err == nil {
			fmt.Println(res.line())
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(exitFailure)
	}
}

// runPass runs one pass of one workload under the watchdog and prints its
// table to standard error.
func runPass(ctx context.Context, cfg config, workload string, traced bool, maxWall time.Duration) (*result, error) {
	ctx, cancel := context.WithTimeoutCause(ctx, maxWall, errMaxWall)
	defer cancel()
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	cfg.root = root
	// The orderly path checks ctx between phases and inside the client
	// loops. Should it hang, this timer ends the process, and with it the
	// listener; the temporary directory is the one thing left to remove.
	hard := time.AfterFunc(maxWall+hardExitGrace, func() {
		os.RemoveAll(root)
		fmt.Fprintln(os.Stderr, "bench: -max-wall exceeded and the unwinding hung; exiting")
		os.Exit(exitFailure)
	})
	defer hard.Stop()

	run, specs := runEndToEnd, endToEnd
	if traced {
		run, specs = runPerLayer, perLayer
	}
	res, err := run(ctx, cfg, workload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	res.print(os.Stderr, specs)
	return res, nil
}

// runAll runs the given passes of every workload, prints each pass's line,
// and writes report.json into cfg.out for -compare.
func runAll(ctx context.Context, cfg config, passes []bool, maxWall time.Duration) error {
	rp := newReport(cfg)
	for _, w := range workloadNames {
		for _, traced := range passes {
			res, err := runPass(ctx, cfg, w, traced, maxWall)
			if err != nil {
				return err
			}
			fmt.Println(res.line())
			rp.record(res, traced)
		}
	}
	if cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	return rp.write(filepath.Join(cfg.out, "report.json"))
}
