#!/usr/bin/env bash
# Black-box crash-recovery check for the durable matcher server:
#
#   1. build a small base matcher index once (deterministic pipeline run)
#   2. serve it with -wal-dir and ingest batches over HTTP, then re-send them
#      four times, so the log holds absorptions that move centroids and add
#      graph nodes (and, at this size, shards reclaiming dead centroid rows)
#   3. SIGKILL the server mid-flight (no graceful shutdown, no final fsync)
#   4. restart it on the same -load-index and -wal-dir
#   5. assert /stats (entities, tuples, matched, singletons) and the SHA-256
#      of the whole tuple set (GET /tuples, singletons included) match the
#      pre-kill state exactly — every acknowledged batch survived, and every
#      row sits in the tuple it was acknowledged in. Recovery takes a batch's
#      decisions from the log, so "right counts, wrong members" is the
#      failure the counts alone would miss.
#   6. print the seconds from restart to /readyz 200 and what the server says
#      of the replay: rows, seconds, rows/s, and how busy the log reader and
#      each shard's apply stream were
#   7. SIGKILL and restart a second time, with no checkpoint in between, and
#      assert the same stats and the same /tuples hash
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
"$WORK/server" -dataset Geo -scale 0.05 -seed 7 -shards 2 \
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

# add_batch B posts ingest batch B.
add_batch() {
  local b="$1" rows="" id r
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
  curl -fsS -X POST -H 'Content-Type: application/json' -d "{\"records\":[${rows%,}]}" "$BASE/add" >/dev/null
}

log "ingesting batches"
for b in $(seq 1 8); do
  add_batch "$b"
done
# A re-sent row is absorbed into its tuple and moves the tuple's centroid,
# leaving the old centroid row dead until its shard reclaims it.
for round in $(seq 1 4); do
  for b in $(seq 1 8); do
    add_batch "$b"
  done
done

BEFORE="$(stat_counts)"
BEFORE_HASH="$(tuples_hash)"
log "pre-kill stats: $(echo "$BEFORE" | tr '\n' ' ') tuples sha256 $BEFORE_HASH"
if ! curl -fsS "$BASE/stats" | grep -q '"wal":{"enabled":true'; then
  log "/stats does not report an enabled WAL"
  exit 1
fi

# kill_restart LOG SIGKILLs the server and starts it again on the same
# -load-index and -wal-dir, logging to LOG, with background checkpoints off so
# that every restart replays the same log over the same snapshot. It prints
# the seconds from restart to /readyz 200 and what the replay itself did, from
# /stats: its rate, and how busy the log reader and each shard's apply stream
# were (docs/OPERATIONS.md, "How long it takes", reads the split).
kill_restart() {
  log "SIGKILL"
  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
  log "restarting on the same -wal-dir"
  local t0 ready
  t0="$(date +%s.%N)"
  "$WORK/server" -load-index "$WORK/base.bin" -wal-dir "$WORK/wal" -fsync off \
    -snapshot-interval 0 -addr "$ADDR" >"$1" 2>&1 &
  SERVER_PID=$!
  wait_ready
  ready="$(date +%s.%N)"
  WAL_STATS="$(curl -fsS "$BASE/stats" | grep -o '"wal":{[^}]*}')"
  log "recovery: $(awk -v a="$t0" -v b="$ready" 'BEGIN { printf "%.2f", b - a }') s from restart to /readyz 200;" \
    "replayed $(wal_stat replayed_rows) rows in $(wal_stat replayed_batches) batches in $(wal_stat replay_seconds) s" \
    "($(awk -v r="$(wal_stat replayed_rows)" -v s="$(wal_stat replay_seconds)" 'BEGIN { printf("%.0f", (s > 0) ? r / s : 0) }') rows/s);" \
    "busy seconds: reader $(wal_stat replay_reader_busy_seconds), shard streams $(wal_stat replay_shard_busy_seconds)"
}
wal_stat() { echo "$WAL_STATS" | grep -oE "\"$1\":(\[[^]]*\]|[^,}]*)" | cut -d: -f2-; }

kill_restart "$WORK/server2.log"

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

# A second crash with no checkpoint in between replays the same log over the
# same snapshot: the same state.
SNAPSHOTS="$(ls "$WORK/wal" | grep '^snapshot-')"
kill_restart "$WORK/server3.log"
AGAIN="$(stat_counts)"
AGAIN_HASH="$(tuples_hash)"
if [ "$(ls "$WORK/wal" | grep '^snapshot-')" != "$SNAPSHOTS" ]; then
  log "FAIL: a checkpoint was taken between the two restarts"
  exit 1
fi
if [ "$AGAIN" != "$BEFORE" ] || [ "$AGAIN_HASH" != "$BEFORE_HASH" ]; then
  log "FAIL: the second restart recovered another state: /tuples hashed $AGAIN_HASH, want $BEFORE_HASH"
  cat "$WORK/server3.log" >&2 || true
  exit 1
fi

# The recovered server must keep ingesting (sequence numbers intact).
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"records":[["post crash probe","1.5","-2.5"]]}' "$BASE/add" >/dev/null

log "PASS: recovered state matches pre-kill state, tuple for tuple, twice"
