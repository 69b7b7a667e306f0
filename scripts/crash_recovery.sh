#!/usr/bin/env bash
# Black-box crash-recovery check for the durable matcher server:
#
#   1. build a base matcher index once (deterministic pipeline run)
#   2. serve it with -wal-dir and ingest batches over HTTP
#   3. SIGKILL the server mid-flight (no graceful shutdown, no final fsync)
#   4. restart it on the same -load-index and -wal-dir
#   5. assert /stats (entities, tuples, matched, singletons) and the SHA-256
#      of the whole tuple set (GET /tuples, singletons included) match the
#      pre-kill state exactly — every acknowledged batch survived, and every
#      row sits in the tuple it was acknowledged in. Recovery takes a batch's
#      decisions from the log, so "right counts, wrong members" is the
#      failure the counts alone would miss.
#   6. print the seconds from restart to /readyz 200, and what the server
#      says of the replay: rows, seconds, rows/s, and how busy the log reader
#      and each shard's apply stream were
#
# Run from the repository root (CI: make crash-recovery).
set -euo pipefail

WORK="$(mktemp -d)"
ADDR="127.0.0.1:18080"
BASE="http://$ADDR"
SERVER_PID=""

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

log() { echo "crash-recovery: $*" >&2; }

# The server binds its listener before recovery starts, so /healthz turns 200
# while the WAL is still replaying; /readyz stays 503 until the matcher is
# installed. Polling readiness (instead of sleeping, or trusting liveness) is
# what makes the post-restart stats comparison race-free.
wait_ready() {
  for _ in $(seq 1 600); do
    if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.05
  done
  log "server on $ADDR never became ready"
  cat "$WORK/server.log" >&2 || true
  return 1
}

# stat_counts extracts the top-level "entities"/"tuples"/"matched"/
# "singletons" fields from /stats (they appear before per_shard, so first
# match wins).
stat_counts() {
  curl -fsS "$BASE/stats" | tr ',{' '\n\n' |
    grep -E '^"(entities|tuples|matched|singletons)":' | head -4 | sort
}

# tuples_hash digests the full tuple set — ids, members, confidences — as
# /tuples streams it from one pinned epoch.
tuples_hash() {
  curl -fsS "$BASE/tuples?min_members=1" | sha256sum | cut -d' ' -f1
}

log "building server"
go build -o "$WORK/server" ./cmd/server

log "building base index"
"$WORK/server" -dataset Geo -scale 0.2 -seed 7 -shards 4 \
  -save-index "$WORK/base.bin" -addr "$ADDR" >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
wait_ready
kill -9 "$SERVER_PID" 2>/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

log "starting durable server (fsync=off: survival must come from the log bytes, not the fsync)"
"$WORK/server" -load-index "$WORK/base.bin" -wal-dir "$WORK/wal" -fsync off \
  -addr "$ADDR" >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
wait_ready

log "ingesting batches"
for b in $(seq 1 8); do
  rows=""
  # every batch after the first opens with a row of the batch before it, so
  # the log also holds absorptions into tuples that existed before the batch
  if [ "$b" -gt 1 ]; then
    id="$(((b - 1) * 100 + 1))"
    rows+="[\"station $id sector $((id % 7))\",\"$((id % 90)).5\",\"-$((id % 80)).25\"],"
  fi
  for r in $(seq 1 32); do
    id="$((b * 100 + r))"
    rows+="[\"station $id sector $((id % 7))\",\"$((id % 90)).5\",\"-$((id % 80)).25\"],"
    # every 4th row duplicates the previous one, so ingest also merges
    if [ "$((r % 4))" = "0" ]; then
      rows+="[\"station $id sector $((id % 7))\",\"$((id % 90)).5\",\"-$((id % 80)).25\"],"
    fi
  done
  body="{\"records\":[${rows%,}]}"
  curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" "$BASE/add" >/dev/null
done

BEFORE="$(stat_counts)"
BEFORE_HASH="$(tuples_hash)"
log "pre-kill stats: $(echo "$BEFORE" | tr '\n' ' ') tuples sha256 $BEFORE_HASH"
if ! curl -fsS "$BASE/stats" | grep -q '"wal":{"enabled":true'; then
  log "/stats does not report an enabled WAL"
  exit 1
fi

log "SIGKILL"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

log "restarting on the same -wal-dir"
T0="$(date +%s.%N)"
"$WORK/server" -load-index "$WORK/base.bin" -wal-dir "$WORK/wal" -fsync off \
  -addr "$ADDR" >"$WORK/server2.log" 2>&1 &
SERVER_PID=$!
wait_ready
READY="$(date +%s.%N)"
# What the replay itself did, from /stats: its rate, and how busy the log
# reader and each shard's apply stream were (docs/OPERATIONS.md, "How long it
# takes", reads the split).
WAL_STATS="$(curl -fsS "$BASE/stats" | grep -o '"wal":{[^}]*}')"
wal_stat() { echo "$WAL_STATS" | grep -oE "\"$1\":(\[[^]]*\]|[^,}]*)" | cut -d: -f2-; }
log "recovery: $(awk -v a="$T0" -v b="$READY" 'BEGIN { printf "%.2f", b - a }') s from restart to /readyz 200;" \
  "replayed $(wal_stat replayed_rows) rows in $(wal_stat replayed_batches) batches in $(wal_stat replay_seconds) s" \
  "($(awk -v r="$(wal_stat replayed_rows)" -v s="$(wal_stat replay_seconds)" 'BEGIN { printf("%.0f", (s > 0) ? r / s : 0) }') rows/s);" \
  "busy seconds: reader $(wal_stat replay_reader_busy_seconds), shard streams $(wal_stat replay_shard_busy_seconds)"

AFTER="$(stat_counts)"
AFTER_HASH="$(tuples_hash)"
log "post-recovery stats: $(echo "$AFTER" | tr '\n' ' ') tuples sha256 $AFTER_HASH"

if [ "$BEFORE" != "$AFTER" ]; then
  log "FAIL: stats diverged across the crash"
  log "before: $BEFORE"
  log "after:  $AFTER"
  cat "$WORK/server2.log" >&2 || true
  exit 1
fi
if [ "$BEFORE_HASH" != "$AFTER_HASH" ]; then
  log "FAIL: same counts, different tuples: /tuples hashed $BEFORE_HASH before the kill, $AFTER_HASH after"
  cat "$WORK/server2.log" >&2 || true
  exit 1
fi

# The recovered server must keep ingesting (sequence numbers intact).
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"records":[["post crash probe","1.5","-2.5"]]}' "$BASE/add" >/dev/null

log "PASS: recovered state matches pre-kill state, tuple for tuple"
