#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout, then runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-bulk --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build in the checkout. The build fails, and the script exits
# non-zero without a result, when the repository sources are missing.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" --outdir "$build" "$@"
