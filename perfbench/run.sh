#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload synth-8x8 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Every build product (Go build cache,
# temporary files, the binary) goes under .bench_build/ in the current
# directory, and the toolchain is kept offline and local.
set -euo pipefail

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
mkdir -p "$GOTMPDIR"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
