#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash kdbbench/run.sh --workload closure --seed 1 --seconds 25 --trace 0
#
# The build cache and the binary live under .bench_build in the current
# directory, so the run reads and writes nothing outside it, and the
# build neither downloads modules nor switches toolchains.
set -euo pipefail
here=$(pwd)
out="$here/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C kdbbench build -o "$out/kdbbench" .
exec "$out/kdbbench" "$@"
