#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper-4gpu --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artifact, cache and temporary
# file stays under .bench_build/ in the checkout. The build fails, and so
# does the run, when the repository's sources are not present.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
