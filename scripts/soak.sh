#!/usr/bin/env bash
# Run the SLO-gated soak: a real 2×3 replicated, partitioned TCP fleet
# under sustained mixed load with SIGKILL/restart and SIGSTOP stall
# injection (cmd/plsh-soak). The harness exits nonzero when an SLO or a
# consistency check fails, so this script's exit code IS the verdict.
#
#   scripts/soak.sh                      # 60s default soak
#   scripts/soak.sh -duration 10s        # CI smoke
#   scripts/soak.sh -duration 5m -slo-search-p99 100ms   # tighter, longer
#
# All arguments are passed through to plsh-soak (see -h for the full
# set). The JSON report (latency quantiles, error rate, recall, fault and
# coordinator counters) lands in benchmarks/soak-latest.json and the
# harness's stdout summary in benchmarks/soak-latest.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p benchmarks
bin="$(mktemp -d)/plsh-soak"
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/plsh-soak

status=0
"$bin" -report benchmarks/soak-latest.json "$@" | tee benchmarks/soak-latest.txt || status=$?
if [ "$status" -ne 0 ]; then
  echo "soak FAILED (exit $status); see benchmarks/soak-latest.json" >&2
  exit "$status"
fi
echo "soak passed; wrote benchmarks/soak-latest.json"
