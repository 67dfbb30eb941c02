#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the benchmark. Run from the repository root:
#
#   bash benchmark/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out results.json]
#
# Everything the build writes (the binary, the go build and module caches)
# lands in .bench_build/ at the root, so a run touches nothing outside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
go build -C "$here" -o "$build/sdsm-benchmark" .
exec "$build/sdsm-benchmark" "$@"
