#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload shard-kv --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artefact, cache and temporary
# file stays under .bench_build/ in the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=mod GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" .
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/perfbench" --root "$root" --commit "$commit" "$@"
