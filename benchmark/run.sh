#!/usr/bin/env bash
# The benchmark's command: BENCHMARK.json runs
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the root of a checkout. It keeps everything the Go toolchain
# writes — build cache, work directories, its own config and telemetry
# files — inside the checkout, builds the driver, and hands the arguments
# to it; the driver builds ./cmd/yaskd (and ./benchmark/layers for
# --trace 1) itself. In a directory without the repository's sources the
# build fails and this script exits non-zero without printing a result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go build -o "$out/yask-benchmark" ./benchmark
exec "$out/yask-benchmark" "$@"
