#!/usr/bin/env bash
# Builds the benchmark and runs it: the command BENCHMARK.json names.
#   bash bench/run.sh --workload scan_decode --seed 1 --seconds 18 --trace 0
# Everything it writes (Go build cache, binaries, server data, CSV files)
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench"
go build -o "$out/vwbench" .
exec "$out/vwbench" -tmp "$out/tmp" "$@"
