#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash bench/run.sh --workload sp100-sim --seed 1 --seconds 10 --trace 0
#
# This is BENCHMARK.json's command. Everything it writes — the Go build
# cache, the binary, the durable workload's WAL directories — stays
# under .bench_build/ in the checkout. bench/ is its own module (it has
# its own go.mod, replacing ndlog with the parent directory), so it
# cannot build without the repository around it and exits non-zero.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -buildvcs=false -o "$build/ndbench" .)
exec "$build/ndbench" "$@"
