#!/bin/sh
# bench_record.sh: record the perf trajectory of the full experiment suite.
#
# Builds gpsbench, runs the complete figure/table matrix twice, and writes
# two reports at the repo root:
#
#   BENCH_<n>.json           -parallel 1: single-threaded hot-path number
#   BENCH_<n>_parallel.json  -parallel 0: the machine-saturating
#                            configuration (one cell worker per GOMAXPROCS)
#
# Compare against the previous BENCH_*.json to see what a PR bought.
#
# Usage: scripts/bench_record.sh [suffix]   (default suffix: 6)
set -eu

suffix=${1:-6}
out="BENCH_${suffix}.json"
outp="BENCH_${suffix}_parallel.json"
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

go build -o "$workdir/gpsbench" ./cmd/gpsbench
"$workdir/gpsbench" -all -parallel 1 -json "$out" >"$workdir/stdout.txt"
grep '^done in' "$workdir/stdout.txt" || true
echo "wrote $out"

"$workdir/gpsbench" -all -parallel 0 -json "$outp" >"$workdir/stdout_parallel.txt"
grep '^done in' "$workdir/stdout_parallel.txt" || true
echo "wrote $outp"
