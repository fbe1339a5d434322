#!/usr/bin/env bash
# Go lines (wc -l) outside bench/: per package of internal/, the non-test
# lines (*.go minus *_test.go), then its _test.go lines; then internal/,
# cmd/, examples/ and the non-test total — the figures ROADMAP aim 2 quotes
# and a simplicity PR's acceptance criteria recompute — and the test total.
# Informational: CI prints it after the build and never gates on it.
set -euo pipefail
cd "$(dirname "$0")/.."

loc() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0r cat | wc -l; }
tests() { find "$@" -name '*_test.go' ! -path './bench/*' -print0 | xargs -0r cat | wc -l; }

for pkg in internal/*/; do
	printf '%7d %7d  %s\n' "$(loc "$pkg")" "$(tests "$pkg")" "${pkg%/}"
done
printf '%7d %7d  internal/\n' "$(loc internal)" "$(tests internal)"
printf '%7d %7d  cmd/\n' "$(loc cmd)" "$(tests cmd)"
printf '%7d %7d  examples/\n' "$(loc examples)" "$(tests examples)"
printf '%7d  total outside bench/\n' "$(loc .)"
printf '%7d  test lines outside bench/\n' "$(tests .)"
