#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout and runs it with the
# arguments given.  The driver calls this from the root of a checkout:
#
#   bash benchmarks/run.sh --workload mg96_np1 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go's build cache and the binary) goes under
# .bench_build/ in the checkout, so a run reads and writes nothing outside.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmarks -o "$root/.bench_build/nccd-benchmarks" .
exec "$root/.bench_build/nccd-benchmarks" "$@"
