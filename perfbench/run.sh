#!/usr/bin/env bash
# Builds the benchmark program and cmd/seqmined from this checkout, then runs
# one benchmark. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload loose-dseq --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# including the Go build cache and the go command's own state (GOPATH and
# the config directory that holds its telemetry counters).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/seqmined" seqmine/cmd/seqmined)
exec "$build/bin/perfbench" -daemon "$build/bin/seqmined" -work "$build/perfbench" "$@"
