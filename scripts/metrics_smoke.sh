#!/usr/bin/env bash
# End-to-end smoke for the observability surface (CI: make metrics-smoke):
#
#   1. build cmd/server and cmd/loadgen
#   2. start a durable server on a small Geo build with the debug listener
#      on, wait for /readyz
#   3. drive a short burst of open-loop mixed traffic through loadgen
#   4. assert /metrics is well-formed text exposition and that the key
#      series — HTTP endpoints, matcher ingest, pipeline stages, HNSW
#      search effort, WAL appends — moved off zero
#   5. assert the pprof index answers on the debug listener and that the
#      debug listener serves the same /metrics catalogue
#   6. SIGKILL the server; assert a restart on the same -wal-dir under
#      another -m refuses to start; restart it without -m, and assert the
#      recovery gauges report the load (seconds, bytes) and
#      the replay (rows and seconds) off zero, and that the M in force is
#      still the snapshot's (multiem_config_info, the ready log line); and
#      that no series of the per-version index this build replaced (stale
#      entries, compactions, skipped links) is exported
#
# Env overrides: RATE, DURATION.
# Run from the repository root.
set -euo pipefail

RATE="${RATE:-150}"
DURATION="${DURATION:-5s}"

WORK="$(mktemp -d)"
ADDR="127.0.0.1:18092"
DEBUG_ADDR="127.0.0.1:18093"
BASE="http://$ADDR"
SERVER_PID=""

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

log() { echo "metrics-smoke: $*" >&2; }

wait_ready() {
  for _ in $(seq 1 300); do
    if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  log "server on $ADDR never became ready"
  cat "$WORK/server.log" >&2 || true
  return 1
}

# metric NAME [LABELS] prints the value of one series from the last scrape.
metric() {
  local name="$1" labels="${2:-}"
  if [ -n "$labels" ]; then
    awk -v n="$name{$labels}" '$1 == n { print $2; found=1 } END { if (!found) print "MISSING" }' "$WORK/metrics.txt"
  else
    awk -v n="$name" '$1 == n { print $2; found=1 } END { if (!found) print "MISSING" }' "$WORK/metrics.txt"
  fi
}

# assert_present NAME [LABELS] fails unless the series exists.
assert_present() {
  if [ "$(metric "$@")" = MISSING ]; then
    log "FAIL: series $1${2:+{$2}} missing from /metrics"
    exit 1
  fi
}

# assert_positive NAME [LABELS] fails unless the series exists and is > 0.
assert_positive() {
  local v
  assert_present "$@"
  v="$(metric "$@")"
  if ! awk -v x="$v" 'BEGIN { exit !(x > 0) }'; then
    log "FAIL: series $1${2:+{$2}} = $v, want > 0"
    exit 1
  fi
}

log "building server and loadgen"
go build -o "$WORK/server" ./cmd/server
go build -o "$WORK/loadgen" ./cmd/loadgen

log "starting server (Geo 0.1, durable, debug listener on $DEBUG_ADDR)"
"$WORK/server" -dataset Geo -scale 0.1 -seed 7 \
  -wal-dir "$WORK/wal" -fsync interval \
  -log-format json -debug-addr "$DEBUG_ADDR" \
  -addr "$ADDR" >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
wait_ready

log "driving $DURATION of open-loop traffic at $RATE req/s"
"$WORK/loadgen" -url "$BASE" \
  -rate "$RATE" -duration "$DURATION" -warmup 1s \
  -match-ratio 0.8 -batch 4..16 -dataset Geo -universe 2000 -zipf 1.2 \
  -fail-on-error >/dev/null

log "scraping and validating /metrics"
curl -fsS "$BASE/metrics" >"$WORK/metrics.txt"

# Well-formedness: every non-comment line is `name{labels} value` or
# `name value` with a parseable numeric value, and every sample's family
# has a TYPE line. (The strict parser in internal/obs runs in go test;
# this is the black-box variant.)
awk '
  /^#/ { if ($1 == "#" && $2 == "TYPE") typed[$3] = 1; next }
  NF != 2 { print "bad line " NR ": " $0; bad = 1; next }
  $2 !~ /^([-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|NaN|[-+]?Inf)$/ { print "bad value on line " NR ": " $0; bad = 1; next }
  {
    fam = $1
    sub(/\{.*/, "", fam)
    sub(/_(sum|count|bucket)$/, "", fam)
    base = $1; sub(/\{.*/, "", base)
    if (!(base in typed) && !(fam in typed)) { print "untyped series on line " NR ": " $0; bad = 1 }
  }
  END { exit bad }
' "$WORK/metrics.txt" || { log "FAIL: /metrics is not well-formed"; exit 1; }

assert_positive multiem_http_requests_total 'endpoint="match"'
assert_positive multiem_http_requests_total 'endpoint="add"'
assert_positive multiem_http_request_duration_seconds_count 'endpoint="match"'
assert_positive multiem_entities
assert_positive multiem_entity_store_bytes
assert_positive multiem_index_vector_bytes
assert_positive multiem_tuples
assert_positive multiem_epoch
assert_positive multiem_ingest_batches_total
assert_positive multiem_ingest_rows_total
assert_positive multiem_match_duration_seconds_count
assert_positive multiem_match_duration_seconds_stage_count 'stage="fanout"'
assert_positive multiem_ingest_duration_seconds_stage_count 'stage="publish"'
assert_positive multiem_view_build_duration_seconds_count
assert_positive multiem_hnsw_searches_total
assert_positive multiem_hnsw_nodes_visited_total
assert_positive multiem_hnsw_distance_evals_total
assert_positive multiem_wal_enabled
assert_positive multiem_wal_appends_total
assert_positive multiem_wal_bytes
assert_positive multiem_config_info 'm="0.5"'

log "checking the debug listener (pprof + /metrics copy)"
curl -fsS "http://$DEBUG_ADDR/debug/pprof/" >/dev/null \
  || { log "FAIL: pprof index not served on -debug-addr"; exit 1; }
# Buffer before grepping: `curl | grep -q` makes grep close the pipe at the
# first match, and once the exposition outgrows the pipe buffer curl dies
# with a write error that pipefail turns into a spurious failure.
curl -fsS "http://$DEBUG_ADDR/metrics" >"$WORK/debug_metrics.txt" \
  || { log "FAIL: /metrics not served on -debug-addr"; exit 1; }
grep -q '^multiem_uptime_seconds ' "$WORK/debug_metrics.txt" \
  || { log "FAIL: debug /metrics is missing multiem_uptime_seconds"; exit 1; }

# The JSON log stream must carry the startup record with the resolved
# kernels path and role.
grep -q '"msg":"starting"' "$WORK/server.log" \
  || { log "FAIL: no structured startup record in the server log"; exit 1; }
grep -q '"kernels":' "$WORK/server.log" \
  || { log "FAIL: startup record does not name the kernels path"; exit 1; }

log "restarting on the same -wal-dir under -m 0.3: the snapshot holds 0.5, so it must refuse to start"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
if timeout 120 "$WORK/server" -dataset Geo -scale 0.1 -seed 7 -m 0.3 \
  -wal-dir "$WORK/wal" -fsync interval \
  -log-format json -addr "$ADDR" >>"$WORK/server.log" 2>&1; then
  log "FAIL: the restart under -m 0.3 started over a snapshot that holds 0.5"; exit 1
fi
grep -q '"msg":"-m differs from the M the matcher'"'"'s file holds.*"file_m":0.5' "$WORK/server.log" \
  || { log "FAIL: the refused restart does not name the file's M"; cat "$WORK/server.log" >&2; exit 1; }

log "restarting on the same -wal-dir without -m: recovery must report itself and keep the snapshot's M"
"$WORK/server" -dataset Geo -scale 0.1 -seed 7 \
  -wal-dir "$WORK/wal" -fsync interval \
  -log-format json -addr "$ADDR" >>"$WORK/server.log" 2>&1 &
SERVER_PID=$!
wait_ready
curl -fsS "$BASE/metrics" >"$WORK/metrics.txt"
# The restart loaded the snapshot the replication feed took at seq 0.
assert_positive multiem_recovery_load_seconds
assert_positive multiem_recovery_load_bytes
assert_positive multiem_recovery_replayed_rows
assert_positive multiem_recovery_replay_seconds
assert_positive multiem_recovery_reader_busy_seconds
assert_positive multiem_recovery_shard_busy_seconds 'shard="0"'
for gone in multiem_shard_stale_entries multiem_shard_compactions_total multiem_recovery_skipped_links; do
  if grep -q "^$gone" "$WORK/metrics.txt"; then
    log "FAIL: /metrics still exports $gone"
    exit 1
  fi
done
assert_positive multiem_config_info 'm="0.5"'
[ "$(grep -c '"msg":"ready: serving".*"m":0.5' "$WORK/server.log")" = 2 ] \
  || { log "FAIL: the ready log lines do not both name m 0.5"; exit 1; }
grep -q '"msg":"durability on".*"load_bytes":[1-9].*"replayed_rows":[1-9].*"replay_shard_busy_seconds"' "$WORK/server.log" \
  || { log "FAIL: the durability log line does not report the load and the replay"; exit 1; }

log "PASS: /metrics well-formed, key series non-zero, pprof reachable, recovery reported, the snapshot's M in force"
