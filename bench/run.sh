#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments.
# The build happens before any clock starts (all timing is in-process), and
# everything it writes — Go's build cache included — stays under
# .bench_build/ in the checkout.
#
#   bash bench/run.sh                                  all workloads, end-to-end metrics
#   bash bench/run.sh --workload table_cold --seed 7   one workload
#   bash bench/run.sh --workload ctl_drain --trace 1   per-layer metrics + bench/out/trace-ctl_drain.jsonl
#   bash bench/run.sh -aa                              A/A self-check
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOMODCACHE="$PWD/.bench_build/gomod" # the module has no dependencies; nothing is fetched
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
