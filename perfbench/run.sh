#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload sim-steady --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache lands in .bench_build/ under the
# checkout. The build fails, and so does this script, when the repository
# module the benchmark imports is not next to it.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
