#!/usr/bin/env bash
# The repository's static gate, run identically by CI and by hand:
#
#   1. go vet          — the toolchain's standard checks
#   2. gofmt           — formatting drift fails, never auto-fixes
#   3. benchmark suite — benchmarks/suite is its own module (the benchmark
#                        contract builds it from a bare checkout), so
#                        ./... above does not reach it; go vet there
#                        catches an internal API change that would break
#                        the benchmark. Its tests start fleets and run in
#                        CI's suite job, not here.
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

echo "==> benchmark suite (own module): go vet"
(cd benchmarks/suite && go vet .)

echo "static gate clean"
