#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload keyed-ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# WAL directories, span files) goes under .bench_build/ in the current
# directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$build/parsum-bench" .)
exec "$build/parsum-bench" --workdir "$build" "$@"
