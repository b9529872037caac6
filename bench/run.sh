#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload warm-hits --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build, its cache and the Go
# toolchain's own state stay under .bench_build/ in that root, and nothing
# is fetched from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
