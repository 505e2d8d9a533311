# Development targets. CI runs fmt/vet/build/test plus a one-iteration
# bench smoke so the go test -bench microbenchmarks cannot rot. The
# repo's benchmark proper is bench/ (bash bench/run.sh; see
# bench/README.md).

GO ?= go
# The serving benchmarks of the read path (internal/store): index probe
# vs linear baseline, parallel fallback scan, full-extent
# zero-row-id-allocation projection, the predicate-pushdown probe
# (zone-map pruning) vs the filtered linear baseline, the live-ingest
# scans (delta-index probe vs seed-state linear tail) plus append
# throughput, the batch-vs-scalar kernel comparison inside
# ScanRectFiltered (residual shapes report kernel_speedup), the
# probe parallelism sweep, the retention path: the filtered probe
# with 10% of rows tombstoned (vs clean baseline and post-compaction)
# plus the two-viewport union scan — and the index-backend A/B: the
# same clustered 1M-row table under a cluster-clipping 1% filtered
# viewport served by the grid vs the STR R-tree, plus kNN latency
# through the tree descent vs the brute-force fallback.
SERVING_BENCH ?= QueryViewport|ExactScanParallel|QueryFullExtentProjection|ScanRectFiltered|ScanLinearFiltered|ScanAfterAppend|AppendThroughput|ProbeParallelSweep|ScanAfterDelete|ScanRectsUnion|SkewedViewport|Nearest
# The cold-start benchmarks (root package): bringing a 1M-row catalog
# up by full offline rebuild vs restoring it from a snapshot file —
# plus the parallel HTTP query path, which guards the observability
# middleware (tracing must stay free when nobody is watching), and the
# sample-tree path: the §V density pass and the loss evaluator, both
# on internal/strtree's search.
SNAPSHOT_BENCH ?= ColdStart|ServerQueryParallel|DensityPass|LossEvaluation

.PHONY: all build test race bench-smoke fmt vet fuzz-smoke obs-smoke torture-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# bench-smoke is the CI guard: every committed benchmark must still
# compile and complete one iteration.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(SERVING_BENCH)' -benchtime 1x ./internal/store
	$(GO) test -run '^$$' -bench '$(SNAPSHOT_BENCH)' -benchtime 1x .

# obs-smoke exercises the observability surface end to end: the
# exposition-format checker under concurrent traffic and -race, the
# slow-query log, tile scan headers, the degraded-tail gauge, and the
# zero-allocation no-trace span contract.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestMetricsStrictUnderConcurrentTraffic|TestSlowLogEndpoint|TestTileScanHeaders' ./internal/server
	$(GO) test -race -count=1 ./internal/obs
	$(GO) test -count=1 -run 'TestObsSlowQueryEndToEnd|TestTailLogDegradedGaugeEndToEnd' .

# fuzz-smoke gives the RowSet algebra, snapshot decoder, and kernel
# equivalence fuzzers a short budget against their checked-in corpora
# (testdata/fuzz); CI runs it on every push. kernel-alloc locks the
# zero-allocation contract of the selection kernels.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRowSetAlgebra -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzKernelEquivalence -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s ./internal/snapshot

.PHONY: kernel-alloc
kernel-alloc:
	$(GO) test -count=1 -run TestKernelZeroAlloc ./internal/store

# torture-smoke runs the resilience suite under -race: the
# crash-recovery torture test (a crash injected at every file-op site
# the durability schedule performs, torn-write variants included, each
# followed by a recovery load that must land on a consistent prefix),
# the durability fault matrix (ENOSPC / sync / rename failures on the
# save and tail-append paths), the fault injector's own tests, and the
# scan cancellation/deadline/shedding tests.
torture-smoke:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryTorture|TestDurabilityFaultMatrix' .
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 -run 'TestScanCancellation|TestScanDeadline|TestScanMidFlight' ./internal/store
	$(GO) test -race -count=1 -run 'TestAdmission|TestRequestTimeoutTaxonomy|TestHTTPErrorTaxonomy' ./internal/server
