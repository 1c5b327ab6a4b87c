#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the driver's
# arguments. bench/ is a module of its own (bench/go.mod, which takes the
# repository's module from the directory above), so it is built from there.
# The Go build and module caches, the toolchain's own configuration and the
# binary live under .bench_build, so nothing outside the checkout is written.
# Run from the root of the checkout:
#
#   bash bench/run.sh --workload lu-compute --seed 1 --seconds 12 --trace 0
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: no go.mod here: run it from the root of a checkout that holds the program" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/config/go/telemetry"
# The go command starts a detached telemetry child on its first run against a
# fresh configuration directory, and that child outlives the command. With the
# mode file saying off it starts none: every process of a run has ended when
# the run has.
echo off >"$build/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$build/config" GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
