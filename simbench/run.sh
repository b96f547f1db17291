#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash simbench/run.sh --workload pair-bulk --seed 7 --seconds 20 --trace 0
#
# Every build product, cache and output stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep the Go toolchain's caches and config inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly \
	GOPROXY=off GOSUMDB=off
(cd "$root/simbench" && go build -o "$build/simbench" .)
exec "$build/simbench" "$@"
