#!/usr/bin/env bash
# Fails if the brute-force oracle package repro/internal/naive is in the
# build of the library or of a serving binary. The oracles are
# exponential-time and exist for tests; only fdbench links them, for
# the brute-force comparisons of its experiments.
set -euo pipefail

cd "$(dirname "$0")/.."

oracle=repro/internal/naive
status=0
for pkg in . ./cmd/fdserve ./cmd/fdcli ./cmd/fdgen; do
  if go list -deps "$pkg" | grep -qx "$oracle"; then
    echo "$pkg links $oracle; imported by:" >&2
    go list -deps -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' "$pkg" |
      awk -v o="$oracle" '{ for (i = 2; i <= NF; i++) if ($i == o) print "  " $1 }' >&2
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "OK: $oracle is not linked into the library or the serving binaries"
fi
exit "$status"
