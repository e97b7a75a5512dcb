#!/usr/bin/env bash
# Builds fhd and the benchmark program from the checkout this script sits
# in, then runs the program with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is read or written outside the
# checkout except the Go toolchain itself.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/gotmp" "$build/run" "$build/config"

# XDG_CONFIG_HOME moves the go command's telemetry counters and config
# lookups, GOPATH its module cache, into the build directory too.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$build/bin/fhd" ./cmd/fhd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -fhd "$build/bin/fhd" -tmp "$build/run" "$@"
