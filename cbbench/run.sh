#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash cbbench/run.sh --workload fig21-mesi --seed 1 --seconds 15 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# working directory, so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/cbbench" -buildvcs=false -o "$build/cbbench" . >&2
exec "$build/cbbench" "$@"
