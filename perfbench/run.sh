#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache) goes under .bench_build/ in that root; nothing is written
# elsewhere. A failed build exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" "$@"
