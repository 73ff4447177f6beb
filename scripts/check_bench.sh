#!/usr/bin/env bash
# Counter gate: reruns the E6 ranked rungs, the E9 ablation, the E12
# append benchmark and the E13 approximate-join rungs and compares the
# deterministic engine counters of every variant against the committed
# BENCH_ranked.json, BENCH_e9.json, BENCH_append.json and
# BENCH_approx.json. The counters count
# work (predicate evaluations, scanned tuples, list scans, page reads),
# not time, so they repeat exactly on any machine: a mismatch means the
# engine does different work, and the fix is either the code or a
# regenerated BENCH file in the same change. Wall time, allocations and
# wall-clock delay are never compared; the work-unit delay of the
# sequential rungs (delay_work_max) is, since it counts work too. Every E9 "parallel ×N" rung must also
# deliver the results of the sequential "+ join-candidate index" rung
# it partitions, with no more jcc_checks and list_scans: the anchor
# windows of a block split divide a pass's work, never repeat it. Every
# E13 "join index" rung must deliver the results of its "sweep" rung:
# the candidate source skips only tuples that cannot matter.
#
# Run from the repository root:
#
#   ./scripts/check_bench.sh
set -euo pipefail

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/fdbench" ./cmd/fdbench
"$tmp/fdbench" -e E6,E9,E12,E13 -json "$tmp/run.json" >/dev/null

python3 - "$tmp/run.json" BENCH_ranked.json BENCH_e9.json BENCH_append.json BENCH_approx.json <<'EOF'
import json
import sys

FIELDS = ["results", "jcc_checks", "sig_hits", "sig_rebuilds", "tuples_scanned",
          "tuples_skipped", "index_probes", "list_scans", "page_reads", "delay_work_max"]


def variants(path):
    out = {}
    for rec in json.load(open(path))["records"]:
        for v in rec["variants"]:
            out[(rec["workload"], v["name"])] = v
    return out


run = variants(sys.argv[1])
failures = checked = 0
for committed in sys.argv[2:]:
    for key, want in variants(committed).items():
        workload, name = key
        got = run.get(key)
        if got is None:
            print(f"FAIL: {committed}: {workload} variant {name!r} missing from the rerun")
            failures += 1
            continue
        checked += 1
        for field in FIELDS:
            if got.get(field) != want.get(field):
                print(f"FAIL: {committed}: {workload} variant {name!r}: {field} = {got.get(field)}, committed {want.get(field)}")
                failures += 1

e9 = {name: v for (workload, name), v in run.items() if workload == "e9"}
seq = next(v for name, v in e9.items() if name.startswith("+ join-candidate index"))
for name, v in e9.items():
    if not name.startswith("parallel"):
        continue
    if v["results"] != seq["results"]:
        print(f"FAIL: e9 variant {name!r}: results = {v['results']}, sequential rung {seq['results']}")
        failures += 1
    for field in ("jcc_checks", "list_scans"):
        if v[field] > seq[field]:
            print(f"FAIL: e9 variant {name!r}: {field} = {v[field]}, above the sequential rung's {seq[field]}")
            failures += 1
for (workload, name), v in run.items():
    if workload != "approx" or not name.endswith(": join index"):
        continue
    sweep = run.get((workload, name.removesuffix("join index") + "sweep"))
    if sweep is None or v["results"] != sweep["results"]:
        print(f"FAIL: approx variant {name!r}: results = {v['results']}, sweep rung {sweep and sweep['results']}")
        failures += 1
if failures:
    sys.exit(1)
print(f"PASS: {checked} variants match the committed counters")
EOF
