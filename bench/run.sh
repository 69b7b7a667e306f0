#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness (a module of its
# own in this directory) and runs it with the driver's arguments. Everything
# the Go toolchain writes, build cache included, stays inside the checkout,
# under .bench_build/; only the first run in a checkout compiles.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$build/multiem-bench" .
exec "$build/multiem-bench" "$@"
