#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it.
# Every argument is passed to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload repeat-hot --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, plan-cache spill directories and span dumps
# all live under .bench_build/ at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
