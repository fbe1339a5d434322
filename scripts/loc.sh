#!/usr/bin/env bash
# Non-test Go lines (wc -l over *.go minus *_test.go): every package of
# internal/, then cmd/, examples/ and everything outside bench/ — the figures
# ROADMAP aim 2 quotes and a simplicity PR's acceptance criteria recompute.
# Informational: CI prints it after the build and never gates on it.
set -euo pipefail
cd "$(dirname "$0")/.."

loc() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l; }

for pkg in internal/*/; do
	printf '%7d  %s\n' "$(loc "$pkg")" "${pkg%/}"
done
printf '%7d  internal/\n' "$(loc internal)"
printf '%7d  cmd/\n' "$(loc cmd)"
printf '%7d  examples/\n' "$(loc examples)"
printf '%7d  total outside bench/\n' "$(loc .)"
