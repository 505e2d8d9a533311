# Development targets. CI runs fmt/vet/build/test plus a one-iteration
# bench smoke so the go test -bench microbenchmarks cannot rot. The
# repo's benchmark proper is bench/ (bash bench/run.sh; see
# bench/README.md).

GO ?= go
# The cold-start benchmarks (root package): bringing a 1M-row catalog
# up by full offline rebuild vs restoring it from a snapshot file —
# plus the parallel HTTP query path, which guards the observability
# middleware (tracing must stay free when nobody is watching), and the
# sample-tree path: the §V density pass and the loss evaluator, both
# on internal/strtree's search.
SNAPSHOT_BENCH ?= ColdStart|ServerQueryParallel|DensityPass|LossEvaluation

.PHONY: all build test race bench-smoke fmt vet fuzz-smoke obs-smoke torture-smoke loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l .

# loc prints the root module's Go line counts, non-test and test, per
# package directory and in total. bench/ is its own module and is left
# out, as are hidden directories (build output).
loc:
	@find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go' -print0 | xargs -0 wc -l | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); seen[d] = 1; \
		if ($$2 ~ /_test\.go$$/) { t[d] += $$1; tt += $$1 } else { n[d] += $$1; nt += $$1 } } \
	END { printf "%-28s %8s %8s\n", "package", "non-test", "test"; \
		for (d in seen) printf "%-28s %8d %8d\n", d, n[d], t[d] | "sort"; close("sort"); \
		printf "%-28s %8d %8d\n", "total", nt, tt }'

# vet covers what CI vets: the root module and bench/, its own module.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# bench-smoke is the CI guard: every committed benchmark must still
# compile and complete one iteration — all of internal/store's,
# internal/proximity's and internal/render's, and the listed root ones
# (the root package's full -bench . takes ~70 s).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/store
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/proximity
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/render
	$(GO) test -run '^$$' -bench '$(SNAPSHOT_BENCH)' -benchtime 1x .

# obs-smoke exercises the observability surface end to end: the
# exposition-format checker under concurrent traffic and -race, the
# slow-query log, tile scan headers, the degraded-tail gauge, and the
# zero-allocation no-trace span contract.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestMetricsStrictUnderConcurrentTraffic|TestSlowLogEndpoint|TestTileScanHeaders' ./internal/server
	$(GO) test -race -count=1 ./internal/obs
	$(GO) test -count=1 -run 'TestObsSlowQueryEndToEnd|TestTailLogDegradedGaugeEndToEnd' .

# fuzz-smoke gives the RowSet algebra, snapshot and tail-log decoder,
# and kernel equivalence fuzzers a short budget against their checked-in
# corpora (testdata/fuzz); CI runs it on every push. kernel-alloc locks the
# zero-allocation contract of the selection kernels, of the packed exp
# (expRow), a Gaussian PairRow and every kind's PairRowXY on both of
# their paths, and of an Interchange offer, and the allocation ceiling
# of one filtered probe on
# the grid, the tree, an appended tail and the linear scan of an
# unindexed pair with one predicate and with five, and of one pooled
# weighted 256² tile (plot, PNG encode, release); it also runs the probe
# golden at GOMAXPROCS 1 and 4, so answers and scan stats cannot come
# to depend on the CPU count.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRowSetAlgebra -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzKernelEquivalence -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s ./internal/snapshot
	$(GO) test -run '^$$' -fuzz FuzzTailDecode -fuzztime 10s ./internal/snapshot

.PHONY: kernel-alloc
kernel-alloc:
	$(GO) test -count=1 -run 'TestKernelZeroAlloc|TestProbeAllocs' ./internal/store
	$(GO) test -count=1 -cpu 1,4 -run TestProbeGolden ./internal/store
	$(GO) test -count=1 -run 'TestInterchangeAddZeroAlloc' ./internal/vas
	$(GO) test -count=1 -run 'TestExpRowZeroAlloc|TestPairRowXYZeroAlloc' ./internal/proximity
	$(GO) test -count=1 -run 'TestTileEncodeAllocs' ./internal/render

# torture-smoke runs the resilience suite under -race: the
# crash-recovery torture test (a crash injected at every file-op site
# the durability schedule performs, torn-write variants included, each
# followed by a recovery load that must land on a consistent prefix),
# the durability fault matrix (ENOSPC / sync / rename failures on the
# save and tail-append paths), the write path's golden tail and
# snapshot bytes, tail-replay validation, the fault injector's own
# tests, and the scan cancellation/deadline/shedding tests.
torture-smoke:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryTorture|TestDurabilityFaultMatrix|TestMutationLogGolden|TestTailReplayValidation' .
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 -run 'TestScanCancellation|TestScanDeadline|TestScanMidFlight' ./internal/store
	$(GO) test -race -count=1 -run 'TestAdmission|TestRequestTimeoutTaxonomy|TestHTTPErrorTaxonomy' ./internal/server
