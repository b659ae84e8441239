#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout this
# script sits in, keeping Go's build cache and temporary files inside
# the checkout (.bench_build/), then run it with the given arguments.
# The first run in a fresh checkout compiles the standard library too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
