#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomod"
export GOTMPDIR="$root/.bench_build/tmp"
mkdir -p "$GOTMPDIR"
go -C perfbench build -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" "$@"
