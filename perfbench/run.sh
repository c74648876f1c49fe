#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# executes it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload path_mc --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Build state and the benchmark's scratch
# files live under .bench_build, so the run writes nothing outside the
# checkout. Build output goes to stderr; stdout carries only the
# benchmark's report and, as its last line, the result object.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTELEMETRY=off
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
