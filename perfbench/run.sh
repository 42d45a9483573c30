#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-tcp --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under the build directory (CARGO_TARGET_DIR if set, else
# .bench_build): the Go build cache, the binary, cold-tier segments,
# spans and profiles.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" --build-dir "$build" "$@"
