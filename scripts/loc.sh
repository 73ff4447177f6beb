#!/usr/bin/env bash
# Prints the repository's size in non-test Go lines: every *.go file
# except *_test.go, outside perfbench/ (the nested benchmark module)
# and outside hidden directories (build caches such as .bench_build).
# Two numbers: all lines, and code lines — the same files without
# blank lines and without lines whose first non-blank characters are
# "//". Print-only; it gates nothing.
#
# Usage: scripts/loc.sh [repo-dir]   (default: this script's repo)
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

files() {
  find . \( -name '.?*' -o -path ./perfbench \) -prune -o \
    -name '*.go' ! -name '*_test.go' -type f -print0
}

total=$(files | xargs -0 cat | wc -l)
code=$(files | xargs -0 cat | grep -cv -e '^[[:space:]]*$' -e '^[[:space:]]*//')
echo "non-test Go lines outside perfbench: $total total, $code without comments and blank lines"
