#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sim-kv --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local

commit=
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null || true)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
if [ -z "$commit" ]; then
	# Not a git checkout: name the sources by their content instead.
	commit="tree-$(cd "$root" && find go.mod internal -name '*.go' -o -name go.mod | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
fi

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --commit "$commit" "$@"
