#!/usr/bin/env bash
# Guards the metrics catalogue and the /stats table of
# docs/OBSERVABILITY.md:
# - every metric name the code can register (the fd_* string literals
#   in internal/obs, internal/service and cmd/fdserve, non-test
#   sources) must appear in the document;
# - every metric the catalogue table lists must be emitted by some
#   source;
# - every JSON field of GET /stats (the service.Stats struct and
#   fdserve's statsResponse) must have a row in the /stats table.
# A metric that ships without documentation is an operational trap —
# dashboards and alerts are written from the doc — and a documented
# metric nothing emits is a dashboard that stays empty.
# Run from the repository root (CI does); exits non-zero listing every
# mismatch.
set -euo pipefail

doc="docs/OBSERVABILITY.md"
fail=0
emitted="$(grep -rhoE '"fd_[a-z0-9_]+"' \
  internal/obs internal/service cmd/fdserve \
  --include='*.go' --exclude='*_test.go' |
  tr -d '"' | sort -u)"

if [ -z "$emitted" ]; then
  echo "FAIL: found no fd_* metric names in the sources (pattern drift?)" >&2
  exit 1
fi

for name in $emitted; do
  if ! grep -q "\`$name\`" "$doc"; then
    echo "FAIL: metric $name is emitted but not documented in $doc" >&2
    fail=1
  fi
done

# Catalogue rows open with the metric name: | `fd_...` | type | ...
catalogued="$(sed -n 's/^| `\(fd_[a-z0-9_]*\)` |.*/\1/p' "$doc" | sort -u)"
if [ -z "$catalogued" ]; then
  echo "FAIL: found no catalogue rows in $doc (table format drift?)" >&2
  exit 1
fi
for name in $catalogued; do
  if ! grep -qx "$name" <<<"$emitted"; then
    echo "FAIL: metric $name is catalogued in $doc but no source emits it" >&2
    fail=1
  fi
done

# struct_tags FILE STRUCT prints the JSON field names of one struct.
struct_tags() {
  sed -n "/^type $2 struct {/,/^}/p" "$1" |
    grep -oE 'json:"[a-z_]+' | sed 's/json:"//'
}
tags="$(struct_tags internal/service/service.go Stats)
$(struct_tags cmd/fdserve/main.go statsResponse)"
if [ "$(wc -w <<<"$tags")" -lt 2 ]; then
  echo "FAIL: found no /stats JSON fields in the sources (pattern drift?)" >&2
  exit 1
fi
# The /stats table is the one under the "### \`GET /stats\`" heading.
table="$(sed -n '/^### `GET \/stats`/,/^#/p' "$doc")"
for tag in $tags; do
  if ! grep -q "^| \`$tag\` |" <<<"$table"; then
    echo "FAIL: /stats field $tag has no row in the /stats table of $doc" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "PASS: all $(wc -w <<<"$emitted") emitted metrics are documented and every catalogued one is emitted;" \
  "all $(wc -w <<<"$tags") /stats fields are in the /stats table of $doc"
