#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload steady-forward --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, span files and fingerprints.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" "$@"
