#!/bin/bash
# The benchmark's command (BENCHMARK.json): build bench/ from source into
# .bench_build/ and become the binary. exec, not a child: when the program
# ends, or is killed, nothing of this script is left running.
#
#   bash bench/run.sh --workload tile_explore --seed 1 --seconds 12 --trace 0
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
# Everything the toolchain writes stays in the checkout; nothing is fetched.
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/vasbench" .
exec "$build/vasbench" -tmp "$build" "$@"
