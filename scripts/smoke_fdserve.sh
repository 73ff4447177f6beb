#!/usr/bin/env bash
# Smoke-tests the fdserve HTTP service against fdcli: generate a chain
# workload with fdgen, count its full disjunction with fdcli, then load
# the same workload (same generator spec and seed, hence the same
# database) into a running fdserve, page one query to exhaustion, and
# compare the counts. Then repeat the query and check that /stats
# reports a cache hit and that the /metrics Prometheus exposition moved
# the query and cache-hit counters, and fetch the query's span tree
# from /queries/{id}/trace. Finally exercise persistence: register a
# database against -data, SIGTERM the server, restart it over the same
# directory, and assert the recovered database lists the same
# fingerprint and pages the same result count with zero
# re-registration — and that /metrics and the trace endpoint still
# answer after a kill -9 restart. Along the way a follow subscription
# streams the base results, observes an append's delta events live,
# and its final total must match a from-scratch query — before and
# after the kill -9 — while the append/cache-patch counters prove the
# incremental path ran. Uses only curl + grep/sed so it runs in
# minimal containers. Usage: smoke_fdserve.sh [bindir]
set -euo pipefail

bindir="${1:-./bin}"
addr="127.0.0.1:8931"
base="http://$addr"
wl="$(mktemp -d)"
server_pid=""
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$wl"' EXIT

# Reference count via fdgen + fdcli (header line excluded).
"$bindir/fdgen" -shape chain -n 4 -m 12 -domain 4 -nulls 0.1 -seed 7 -out "$wl" >/dev/null
cli_lines="$("$bindir/fdcli" "$wl"/R00.csv "$wl"/R01.csv "$wl"/R02.csv "$wl"/R03.csv | wc -l)"
cli_count="$((cli_lines - 1))"
echo "fdcli count: $cli_count"

"$bindir/fdserve" -addr "$addr" &
server_pid=$!
for _ in $(seq 1 50); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$base/healthz" >/dev/null

curl -fsS -X POST "$base/databases" -d \
  '{"name":"w","workload":{"kind":"chain","relations":4,"tuples":12,"domain":4,"null_rate":0.1,"seed":7}}' \
  >/dev/null

new_query() {
  curl -fsS -X POST "$base/queries" -d '{"database":"w","mode":"exact"}' |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p'
}

# counter_value <exposition> <series> prints the sample value of one
# Prometheus series (exact match on name + label set), or 0 if absent.
counter_value() {
  local v
  v="$(grep -F "$2 " <<<"$1" | sed -n 's/.* \([0-9][0-9]*\)$/\1/p')"
  echo "${v:-0}"
}

# Baseline /metrics scrape before any query has run.
metrics0="$(curl -fsS "$base/metrics")"
q0="$(counter_value "$metrics0" 'fd_queries_total{db="w",mode="exact"}')"
h0="$(counter_value "$metrics0" 'fd_cache_hits_total')"

page_to_exhaustion() {
  local qid="$1" total=0 page
  while :; do
    page="$(curl -fsS "$base/queries/$qid/next?k=7")"
    total="$((total + $(grep -o '"set":' <<<"$page" | wc -l)))"
    grep -q '"done":true' <<<"$page" && break
  done
  echo "$total"
}

qid="$(new_query)"
serve_count="$(page_to_exhaustion "$qid")"
echo "fdserve paged count: $serve_count"
if [ "$serve_count" != "$cli_count" ]; then
  echo "FAIL: fdserve paged $serve_count results, fdcli printed $cli_count" >&2
  exit 1
fi

# The repeated identical query must come from the result cache.
qid2="$(new_query)"
serve_count2="$(page_to_exhaustion "$qid2")"
if [ "$serve_count2" != "$cli_count" ]; then
  echo "FAIL: cached replay served $serve_count2 results, want $cli_count" >&2
  exit 1
fi
stats="$(curl -fsS "$base/stats")"
hits="$(sed -n 's/.*"cache_hits":\([0-9]*\).*/\1/p' <<<"$stats")"
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
  echo "FAIL: no cache hit recorded in stats: $stats" >&2
  exit 1
fi
echo "cache hits: $hits"

# --- observability: /metrics counters moved, trace served ------------
metrics1="$(curl -fsS "$base/metrics")"
if ! grep -q '^# TYPE fd_queries_total counter$' <<<"$metrics1"; then
  echo "FAIL: /metrics exposition has no fd_queries_total TYPE line" >&2
  exit 1
fi
q1="$(counter_value "$metrics1" 'fd_queries_total{db="w",mode="exact"}')"
h1="$(counter_value "$metrics1" 'fd_cache_hits_total')"
if [ "$q1" -le "$q0" ]; then
  echo "FAIL: fd_queries_total{db=\"w\"} did not move ($q0 -> $q1)" >&2
  exit 1
fi
if [ "$h1" -le "$h0" ]; then
  echo "FAIL: fd_cache_hits_total did not move ($h0 -> $h1)" >&2
  exit 1
fi
echo "metrics: fd_queries_total $q0 -> $q1, fd_cache_hits_total $h0 -> $h1"

# The span tree of the drained (finished, history-retained) session.
trace="$(curl -fsS "$base/queries/$qid/trace")"
for span in '"name":"query"' '"name":"open"' '"name":"next"'; do
  if ! grep -q "$span" <<<"$trace"; then
    echo "FAIL: trace of $qid missing $span: $trace" >&2
    exit 1
  fi
done
echo "trace: span tree served for $qid"

# --- parallel execution over the wire (options.workers) --------------
# A workers:4 spec runs the parallel streaming executor behind the same
# paging surface; the paged count must match the sequential one.
pqid="$(curl -fsS -X POST "$base/queries" \
  -d '{"database":"w","mode":"exact","options":{"workers":4}}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
if [ -z "$pqid" ]; then
  echo "FAIL: workers:4 query was not accepted" >&2
  exit 1
fi
par_count="$(page_to_exhaustion "$pqid")"
echo "fdserve parallel (workers:4) paged count: $par_count"
if [ "$par_count" != "$cli_count" ]; then
  echo "FAIL: parallel query paged $par_count results, sequential printed $cli_count" >&2
  exit 1
fi

# --- introspection: POST /explain, progress polling, delay metric ----
# The plan for the same workers:4 body must name the parallel strategy
# with a task partition.
plan="$(curl -fsS -X POST "$base/explain" \
  -d '{"database":"w","mode":"exact","options":{"workers":4}}')"
if ! grep -q '"execution":"parallel"' <<<"$plan"; then
  echo "FAIL: workers:4 plan does not name the parallel strategy: $plan" >&2
  exit 1
fi
if ! grep -q '"label":"pass ' <<<"$plan"; then
  echo "FAIL: parallel plan lists no tasks: $plan" >&2
  exit 1
fi
echo "explain: parallel strategy planned for workers:4"

# fd.Open has one engine configuration: an options-free plan reports
# the join index engaged, and the removed engine knobs are rejected by
# strict decoding instead of silently ignored.
plan="$(curl -fsS -X POST "$base/explain" -d '{"database":"w","mode":"exact"}')"
if ! grep -q '"join_index":true' <<<"$plan"; then
  echo "FAIL: options-free plan does not report the join index: $plan" >&2
  exit 1
fi
for opts in '{"strategy":"seeded"}' '{"use_index":false}'; do
  code="$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$base/queries" \
    -d "{\"database\":\"w\",\"options\":$opts}")"
  if [ "$code" != "400" ]; then
    echo "FAIL: options $opts answered $code, want 400" >&2
    exit 1
  fi
done
echo "explain: join index engaged by default; removed engine options rejected"

# Progress polled mid-page must be well-formed and monotone in
# results_emitted across pages, ending in phase "done".
iqid="$(curl -fsS -X POST "$base/queries" \
  -d '{"database":"w","mode":"exact","options":{"workers":4}}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
prev_emitted=-1
while :; do
  page="$(curl -fsS "$base/queries/$iqid/next?k=7")"
  prog="$(curl -fsS "$base/queries/$iqid/progress")"
  emitted="$(sed -n 's/.*"results_emitted":\([0-9]*\).*/\1/p' <<<"$prog")"
  if [ -z "$emitted" ]; then
    echo "FAIL: progress report has no results_emitted: $prog" >&2
    exit 1
  fi
  if [ "$emitted" -lt "$prev_emitted" ]; then
    echo "FAIL: results_emitted went backwards ($prev_emitted -> $emitted): $prog" >&2
    exit 1
  fi
  prev_emitted="$emitted"
  grep -q '"done":true' <<<"$page" && break
done
prog="$(curl -fsS "$base/queries/$iqid/progress")"
if ! grep -q '"phase":"done"' <<<"$prog"; then
  echo "FAIL: drained query not in phase done: $prog" >&2
  exit 1
fi
echo "progress: monotone results_emitted up to $prev_emitted, phase done"

# The per-result delay histogram of the served enumerations is in the
# exposition.
metrics_delay="$(curl -fsS "$base/metrics")"
if ! grep -q '^fd_result_delay_seconds_count{db="w",mode="exact"' <<<"$metrics_delay"; then
  echo "FAIL: /metrics has no fd_result_delay_seconds series for db w" >&2
  exit 1
fi
echo "metrics: fd_result_delay_seconds series present"

# --- approx-ranked over the wire (fd.Query JSON: mode/tau/rank/k) ----
curl -fsS -X POST "$base/databases" -d \
  '{"name":"d","workload":{"kind":"dirty","relations":3,"tuples":8,"domain":3,"error_rate":0.3,"seed":5}}' \
  >/dev/null
arqid="$(curl -fsS -X POST "$base/queries" \
  -d '{"database":"d","mode":"approx-ranked","tau":0.6,"rank":"fmax","k":6}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
if [ -z "$arqid" ]; then
  echo "FAIL: approx-ranked query was not accepted" >&2
  exit 1
fi
ar_total=0
while :; do
  page="$(curl -fsS "$base/queries/$arqid/next?k=2")"
  # The final page can be empty; "|| true" keeps the zero count from
  # tripping pipefail.
  ranks="$(grep -o '"rank":' <<<"$page" | wc -l || true)"
  sets="$(grep -o '"set":' <<<"$page" | wc -l || true)"
  if [ "$ranks" != "$sets" ]; then
    echo "FAIL: approx-ranked page carries $sets results but $ranks ranks: $page" >&2
    exit 1
  fi
  ar_total="$((ar_total + sets))"
  grep -q '"done":true' <<<"$page" && break
done
if [ "$ar_total" -lt 1 ] || [ "$ar_total" -gt 6 ]; then
  echo "FAIL: approx-ranked k=6 paged $ar_total results" >&2
  exit 1
fi
echo "approx-ranked paged count: $ar_total (every result ranked)"

# --- persistence: register with -data, SIGTERM, restart, recover -----
kill "$server_pid" && wait "$server_pid" 2>/dev/null || true
data="$wl/data"

"$bindir/fdserve" -addr "$addr" -data "$data" &
server_pid=$!
for _ in $(seq 1 50); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$base/healthz" >/dev/null

reg="$(curl -fsS -X POST "$base/databases" -d \
  '{"name":"p","workload":{"kind":"chain","relations":4,"tuples":12,"domain":4,"null_rate":0.1,"seed":7}}')"
fp1="$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' <<<"$reg")"
if [ -z "$fp1" ]; then
  echo "FAIL: registration returned no fingerprint: $reg" >&2
  exit 1
fi
qid="$(curl -fsS -X POST "$base/queries" -d '{"database":"p","mode":"exact"}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
count1="$(page_to_exhaustion "$qid")"
echo "pre-restart: fingerprint $fp1, $count1 results"
if [ "$count1" != "$cli_count" ]; then
  echo "FAIL: durable server paged $count1 results, fdcli printed $cli_count" >&2
  exit 1
fi

kill -TERM "$server_pid" && wait "$server_pid" 2>/dev/null || true

"$bindir/fdserve" -addr "$addr" -data "$data" &
server_pid=$!
for _ in $(seq 1 50); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$base/healthz" >/dev/null

# Zero re-registration: the database must already be listed, with the
# pre-restart fingerprint.
listing="$(curl -fsS "$base/databases")"
fp2="$(sed -n 's/.*"name":"p"[^}]*"fingerprint":"\([0-9a-f]*\)".*/\1/p' <<<"$listing")"
if [ "$fp2" != "$fp1" ]; then
  echo "FAIL: recovered fingerprint '$fp2' != pre-restart '$fp1' (listing: $listing)" >&2
  exit 1
fi
qid="$(curl -fsS -X POST "$base/queries" -d '{"database":"p","mode":"exact"}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
count2="$(page_to_exhaustion "$qid")"
if [ "$count2" != "$count1" ]; then
  echo "FAIL: recovered database paged $count2 results, want $count1" >&2
  exit 1
fi
echo "post-restart: fingerprint $fp2, $count2 results (recovered, no re-registration)"

# --- crash consistency: kill -9 mid-append, restart, old or new ------
# Reference pass, on the running server: append one row to "p" and
# record the post-append fingerprint and paged count. Registration and
# append are deterministic, so a second directory reaches the same two
# states.
fp_pre="$fp1"
count_pre="$count1"

# --- live subscription: follow the query across the append -----------
# A follow query drains the base results, then streams each append's
# delta (retract/result events plus one "delta" summary per append).
# ?appends=1 ends the stream deterministically after one append.
fqid="$(curl -fsS -X POST "$base/queries" -d '{"database":"p","follow":true}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
if [ -z "$fqid" ]; then
  echo "FAIL: follow query was not accepted" >&2
  exit 1
fi
follow_out="$wl/follow.ndjson"
curl -fsSN "$base/queries/$fqid/follow?appends=1" >"$follow_out" &
follow_pid=$!
for _ in $(seq 1 50); do
  grep -q '"event":"live"' "$follow_out" 2>/dev/null && break
  sleep 0.2
done
if ! grep -q '"event":"live"' "$follow_out"; then
  echo "FAIL: follow stream never reached the live marker: $(cat "$follow_out" 2>/dev/null)" >&2
  exit 1
fi
base_streamed="$(grep -c '"event":"result"' "$follow_out" || true)"
if [ "$base_streamed" != "$count_pre" ]; then
  echo "FAIL: follow base drain streamed $base_streamed results, want $count_pre" >&2
  exit 1
fi
echo "follow: base drain streamed $base_streamed results, live"

app="$(curl -fsS -X POST "$base/databases/p/rows" -d \
  '{"relation":"R00","tuples":[{"label":"zz","values":["zz1",null]}]}')"
fp_post="$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' <<<"$app")"
if [ -z "$fp_post" ] || [ "$fp_post" = "$fp_pre" ]; then
  echo "FAIL: append returned no new fingerprint: $app" >&2
  exit 1
fi
qid="$(curl -fsS -X POST "$base/queries" -d '{"database":"p","mode":"exact"}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
count_post="$(page_to_exhaustion "$qid")"
echo "crash reference: pre $fp_pre/$count_pre, post $fp_post/$count_post"

# The subscription must have observed the append: a "delta" summary,
# then the ?appends=1 "end" whose running total matches the full
# enumeration of the appended database.
wait "$follow_pid" 2>/dev/null || true
for ev in '"event":"delta"' '"event":"end"'; do
  if ! grep -q "$ev" "$follow_out"; then
    echo "FAIL: follow stream missing $ev event: $(cat "$follow_out")" >&2
    exit 1
  fi
done
followed_total="$(sed -n 's/.*"event":"end","total":\([0-9]*\).*/\1/p' "$follow_out")"
if [ "$followed_total" != "$count_post" ]; then
  echo "FAIL: follow stream ended at total $followed_total, full query paged $count_post" >&2
  exit 1
fi
echo "follow: delta observed, final total $followed_total matches the full query"

# The append ran the incremental-maintenance path: append and
# cache-patch counters moved (the cached pre-append result list was
# patched across the fingerprint roll, not invalidated).
metrics_app="$(curl -fsS "$base/metrics")"
ap="$(counter_value "$metrics_app" 'fd_appends_total{db="p"}')"
cp="$(counter_value "$metrics_app" 'fd_cache_patches_total')"
if [ "$ap" -lt 1 ]; then
  echo "FAIL: fd_appends_total{db=\"p\"} = $ap after an append, want >= 1" >&2
  exit 1
fi
if [ "$cp" -lt 1 ]; then
  echo "FAIL: fd_cache_patches_total = $cp after an append over a cached list, want >= 1" >&2
  exit 1
fi
echo "metrics: fd_appends_total{db=\"p\"}=$ap, fd_cache_patches_total=$cp"
kill -TERM "$server_pid" && wait "$server_pid" 2>/dev/null || true

# Crash pass: fresh directory, same registration, then SIGKILL the
# server with the same append in flight. No flushes, no goodbyes.
cdata="$wl/crashdata"
"$bindir/fdserve" -addr "$addr" -data "$cdata" &
server_pid=$!
for _ in $(seq 1 50); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$base/healthz" >/dev/null
curl -fsS -X POST "$base/databases" -d \
  '{"name":"p","workload":{"kind":"chain","relations":4,"tuples":12,"domain":4,"null_rate":0.1,"seed":7}}' \
  >/dev/null
curl -fsS -X POST "$base/databases/p/rows" -d \
  '{"relation":"R00","tuples":[{"label":"zz","values":["zz1",null]}]}' \
  >/dev/null 2>&1 &
append_pid=$!
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
wait "$append_pid" 2>/dev/null || true

"$bindir/fdserve" -addr "$addr" -data "$cdata" &
server_pid=$!
for _ in $(seq 1 50); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$base/healthz" >/dev/null

# The recovered database must be exactly the pre-append or the
# post-append state — matching fingerprint AND matching paged count —
# and nothing may have been quarantined by a clean crash.
listing="$(curl -fsS "$base/databases")"
fp3="$(sed -n 's/.*"name":"p"[^}]*"fingerprint":"\([0-9a-f]*\)".*/\1/p' <<<"$listing")"
case "$fp3" in
  "$fp_pre")  want_count="$count_pre"; state="pre-append" ;;
  "$fp_post") want_count="$count_post"; state="post-append" ;;
  *)
    echo "FAIL: post-crash fingerprint '$fp3' is neither pre '$fp_pre' nor post '$fp_post' (listing: $listing)" >&2
    exit 1 ;;
esac
qid="$(curl -fsS -X POST "$base/queries" -d '{"database":"p","mode":"exact"}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
count3="$(page_to_exhaustion "$qid")"
if [ "$count3" != "$want_count" ]; then
  echo "FAIL: post-crash ($state) paged $count3 results, want $want_count" >&2
  exit 1
fi
stats="$(curl -fsS "$base/stats")"
if grep -q '"quarantined_databases"' <<<"$stats"; then
  echo "FAIL: a clean kill -9 quarantined a database: $stats" >&2
  exit 1
fi
echo "post-crash: recovered the complete $state state ($fp3, $count3 results)"

# --- observability survives the kill -9 restart ----------------------
# The fresh process must serve a well-formed exposition whose query
# counter reflects the post-crash query, and the trace endpoint must
# serve that query's span tree.
metrics2="$(curl -fsS "$base/metrics")"
if ! grep -q '^# TYPE fd_queries_total counter$' <<<"$metrics2"; then
  echo "FAIL: post-crash /metrics exposition has no fd_queries_total TYPE line" >&2
  exit 1
fi
qp="$(counter_value "$metrics2" 'fd_queries_total{db="p",mode="exact"}')"
if [ "$qp" -lt 1 ]; then
  echo "FAIL: post-crash fd_queries_total{db=\"p\"} = $qp, want >= 1" >&2
  exit 1
fi
trace="$(curl -fsS "$base/queries/$qid/trace")"
for span in '"name":"query"' '"name":"open"' '"name":"next"'; do
  if ! grep -q "$span" <<<"$trace"; then
    echo "FAIL: post-crash trace of $qid missing $span: $trace" >&2
    exit 1
  fi
done
echo "post-crash observability: metrics (fd_queries_total{db=\"p\"}=$qp) and trace served"

# --- the followed total survives the kill -9 -------------------------
# Bring the recovered database to the post-append state (a no-op when
# the crash already persisted the append) and assert a from-scratch
# query matches the total the live subscription last reported.
if [ "$state" = "pre-append" ]; then
  curl -fsS -X POST "$base/databases/p/rows" -d \
    '{"relation":"R00","tuples":[{"label":"zz","values":["zz1",null]}]}' >/dev/null
fi
qid="$(curl -fsS -X POST "$base/queries" -d '{"database":"p","mode":"exact"}' |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
count4="$(page_to_exhaustion "$qid")"
if [ "$count4" != "$followed_total" ]; then
  echo "FAIL: post-crash full query paged $count4 results, followed total was $followed_total" >&2
  exit 1
fi
echo "post-crash: full query matches the followed total ($count4)"
echo "PASS"
