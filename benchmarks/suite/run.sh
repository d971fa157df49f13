#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmarks/suite/run.sh --workload static_query --seed 1 --seconds 10 --trace 0
#
# Builds the suite (its own module, benchmarks/suite/go.mod) into
# .bench_build/ and runs it. Everything the build and the run write —
# the Go build cache, the plsh-node binary the fleet workloads spawn,
# node data directories — lands under .bench_build/ in the checkout; the
# per-run temp directory is removed on every exit path.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-modcacherw
export TMPDIR="$build/tmp.$$"
mkdir -p "$TMPDIR"
trap 'rm -rf "$TMPDIR"' EXIT

go build -C benchmarks/suite -o "$build/suite" .
"$build/suite" "$@"
