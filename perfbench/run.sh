#!/usr/bin/env bash
# Builds fdserve and the perfbench binary from the checkout it is run
# in, then runs perfbench with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload cold-drain --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/fdserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (cmd/fdserve and go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/fdserve" ./cmd/fdserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -fdserve "$out/fdserve" -workdir "$out" "$@"
