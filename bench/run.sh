#!/usr/bin/env bash
# Builds the benchmark harness into .bench_build/ at the repository root and
# runs it from there. The Go build cache is kept inside .bench_build too, so
# nothing outside the checkout is written.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$out/fastnet-bench" .
cd "$root"
exec "$out/fastnet-bench" "$@"
