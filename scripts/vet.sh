#!/usr/bin/env bash
# The repository's full static gate, run identically by CI and by hand:
#
#   1. go vet          — the toolchain's standard checks
#   2. gofmt           — formatting drift fails, never auto-fixes
#   3. plsh-vet        — the repository's one custom analyzer
#                        (internal/analysis): lockorder, over every
#                        non-test package
#   4. benchmark suite — benchmarks/suite is its own module (the benchmark
#                        contract builds it from a bare checkout), so
#                        ./... above does not reach it; go vet and
#                        go test -short there catch an internal API change
#                        that would break the benchmark
#
# Every failure prints file:line:col so CI annotations and editors can
# jump straight to the site. Exits nonzero on the first failing stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet"
go vet "$@" ./...

echo "==> gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  while IFS= read -r f; do
    echo "$f:1:1: gofmt: file is not gofmt-formatted" >&2
  done <<<"$unformatted"
  exit 1
fi

echo "==> plsh-vet"
bin="$(mktemp -d)/plsh-vet"
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/plsh-vet
"$bin" ./...

echo "==> benchmark suite (own module)"
(cd benchmarks/suite && go vet . && go test -short ./...)

echo "static gate clean"
