#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with
# the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload solve-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
