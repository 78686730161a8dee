#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the repository root: bash bench/run.sh -workload grid
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local
commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
go build -C "$root/bench" -buildvcs=false -ldflags "-X main.commit=$commit" \
	-o "$root/.bench_build/ftsvm-bench" .
exec "$root/.bench_build/ftsvm-bench" "$@"
