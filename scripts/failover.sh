#!/usr/bin/env bash
# Black-box failover check for the replicated matcher server:
#
#   1. build a base matcher index once (deterministic pipeline run)
#   2. start a primary (-wal-dir, replication feed on) and a follower
#      (-role follower) mirroring it over HTTP
#   3. ingest acked probe batches on the primary, wait for replication lag 0
#   4. start a background ingest burst and SIGKILL the primary mid-burst
#   5. POST /promote on the follower: it drops any incomplete trailing
#      batch, bumps the fencing term, and flips writable
#   6. assert the promoted node serves every batch acked before the kill
#      (each probe record /match-es back at distance ~0), reports role
#      "primary", and accepts new writes
#
# Run from the repository root (CI: make failover-smoke). On failure both
# processes' logs land in $FAILOVER_LOG_DIR (default: a temp dir echoed at
# exit) so CI can upload them.
set -euo pipefail

WORK="$(mktemp -d)"
LOG_DIR="${FAILOVER_LOG_DIR:-$WORK/logs}"
mkdir -p "$LOG_DIR"
P_ADDR="127.0.0.1:18091"
F_ADDR="127.0.0.1:18092"
P_BASE="http://$P_ADDR"
F_BASE="http://$F_ADDR"
P_PID=""
F_PID=""
BURST_PID=""

cleanup() {
  [ -n "$BURST_PID" ] && kill "$BURST_PID" 2>/dev/null || true
  [ -n "$P_PID" ] && kill -9 "$P_PID" 2>/dev/null || true
  [ -n "$F_PID" ] && kill -9 "$F_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

log() { echo "failover: $*" >&2; }

fail() {
  log "FAIL: $*"
  log "logs preserved in $LOG_DIR"
  # cleanup removes $WORK; keep the logs out of it when CI exported a path.
  if [ "$LOG_DIR" = "$WORK/logs" ]; then
    SAVED="$(mktemp -d /tmp/failover-logs.XXXXXX)"
    cp "$LOG_DIR"/*.log "$SAVED"/ 2>/dev/null || true
    log "logs copied to $SAVED"
  fi
  tail -40 "$LOG_DIR/primary.log" >&2 2>/dev/null || true
  tail -40 "$LOG_DIR/follower.log" >&2 2>/dev/null || true
  exit 1
}

wait_ready() { # base-url name
  for _ in $(seq 1 300); do
    if curl -fsS "$1/readyz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  fail "$2 on $1 never became ready"
}

# stats_field pulls one top-level numeric/string field out of /stats JSON.
stats_field() { # base-url field
  curl -fsS "$1/stats" | tr ',{' '\n\n' | grep -m1 "^\"$2\":" | cut -d: -f2- | tr -d '"'
}

log "building server"
go build -o "$WORK/server" ./cmd/server

log "building base index"
"$WORK/server" -dataset Geo -scale 0.2 -seed 7 -shards 4 \
  -save-index "$WORK/base.bin" -addr "$P_ADDR" >"$LOG_DIR/build.log" 2>&1 &
P_PID=$!
wait_ready "$P_BASE" "index builder"
kill -9 "$P_PID" 2>/dev/null
wait "$P_PID" 2>/dev/null || true
P_PID=""

log "starting primary"
"$WORK/server" -load-index "$WORK/base.bin" -wal-dir "$WORK/primary" -fsync off \
  -addr "$P_ADDR" >"$LOG_DIR/primary.log" 2>&1 &
P_PID=$!
wait_ready "$P_BASE" "primary"

log "starting follower"
"$WORK/server" -role follower -primary-url "$P_BASE" -wal-dir "$WORK/mirror" \
  -follow-poll 50ms -fsync off -addr "$F_ADDR" >"$LOG_DIR/follower.log" 2>&1 &
F_PID=$!
wait_ready "$F_BASE" "follower"

if [ "$(stats_field "$F_BASE" role)" != "follower" ]; then
  fail "follower /stats does not report role follower"
fi

log "ingesting acked probe batches on the primary"
N_PROBES=6
for b in $(seq 1 "$N_PROBES"); do
  rows=""
  for r in $(seq 1 16); do
    id="$((b * 1000 + r))"
    rows+="[\"failover probe $id landmark $((id % 13))\",\"$((id % 90)).5\",\"-$((id % 80)).25\"],"
  done
  body="{\"records\":[${rows%,}]}"
  curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" "$P_BASE/add" >/dev/null ||
    fail "acked ingest batch $b was rejected"
done

log "waiting for replication lag 0"
CATCHUP_T0="$(date +%s.%N)"
PRIMARY_SEQ="$(stats_field "$P_BASE" next_seq)"
for _ in $(seq 1 200); do
  LAG="$(stats_field "$F_BASE" lag_batches || echo missing)"
  F_SEQ="$(stats_field "$F_BASE" next_seq || echo 0)"
  if [ "$LAG" = "0" ] && [ "$F_SEQ" = "$PRIMARY_SEQ" ]; then
    break
  fi
  sleep 0.1
done
[ "$(stats_field "$F_BASE" lag_batches)" = "0" ] || fail "follower never reached lag 0"
log "follower caught up at seq $PRIMARY_SEQ," \
  "$(awk -v t0="$CATCHUP_T0" -v t1="$(date +%s.%N)" 'BEGIN { printf("%.2f", t1 - t0) }') s after the last probe batch was acked"

log "starting background ingest burst"
(
  b=100
  while :; do
    rows=""
    for r in $(seq 1 8); do
      id="$((b * 1000 + r))"
      rows+="[\"burst row $id zone $((id % 11))\",\"$((id % 85)).5\",\"-$((id % 75)).25\"],"
    done
    curl -fsS -X POST -H 'Content-Type: application/json' \
      -d "{\"records\":[${rows%,}]}" "$P_BASE/add" >/dev/null 2>&1 || exit 0
    b=$((b + 1))
  done
) &
BURST_PID=$!

sleep 0.7
log "SIGKILL primary mid-burst"
kill -9 "$P_PID"
wait "$P_PID" 2>/dev/null || true
P_PID=""
kill "$BURST_PID" 2>/dev/null || true
wait "$BURST_PID" 2>/dev/null || true
BURST_PID=""

log "promoting follower"
PROMOTE="$(curl -fsS -X POST "$F_BASE/promote")" || fail "/promote failed"
log "promote response: $PROMOTE"
wait_ready "$F_BASE" "promoted follower"

ROLE="$(stats_field "$F_BASE" role)"
[ "$ROLE" = "primary" ] || fail "promoted node reports role $ROLE, want primary"

# The promoted node must cover at least every batch acked before the burst
# (the follower was at lag 0 then; promotion only drops an incomplete
# trailing burst batch).
F_SEQ="$(stats_field "$F_BASE" next_seq)"
[ "$F_SEQ" -ge "$PRIMARY_SEQ" ] || fail "promoted next_seq $F_SEQ lost acked batches (had $PRIMARY_SEQ)"

log "matching every acked probe record against the promoted node"
for b in $(seq 1 "$N_PROBES"); do
  for r in 1 7 16; do
    id="$((b * 1000 + r))"
    q="{\"values\":[\"failover probe $id landmark $((id % 13))\",\"$((id % 90)).5\",\"-$((id % 80)).25\"],\"k\":1}"
    resp="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$q" "$F_BASE/match")" ||
      fail "match for probe $id errored"
    case "$resp" in
    *'"distance":0'*) ;;
    *) fail "probe $id not served by the promoted follower: $resp" ;;
    esac
  done
done

log "verifying the promoted node accepts writes"
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"records":[["post failover probe","3.5","-4.25"]]}' "$F_BASE/add" >/dev/null ||
  fail "promoted node rejected a write"

# And it now serves a replication feed of its own, with a bumped term.
TERM="$(curl -fsS "$F_BASE/repl/manifest" | tr ',{' '\n\n' | grep -m1 '^"term":' | cut -d: -f2)"
[ "$TERM" -ge 2 ] || fail "promoted manifest term $TERM, want >= 2"

# The metrics surface must agree: the promoted node exports the bumped
# fencing term and primary role on /metrics (what an alert rule watches).
M_TERM="$(curl -fsS "$F_BASE/metrics" | awk '$1 == "multiem_repl_term" { print $2 }')"
awk -v t="${M_TERM:-0}" 'BEGIN { exit !(t >= 2) }' ||
  fail "promoted /metrics multiem_repl_term ${M_TERM:-missing}, want >= 2"
M_ROLE="$(curl -fsS "$F_BASE/metrics" | awk '$1 == "multiem_repl_role" { print $2 }')"
[ "$M_ROLE" = "1" ] || fail "promoted /metrics multiem_repl_role ${M_ROLE:-missing}, want 1 (primary)"

log "PASS: promoted follower serves every acked batch (term $TERM, seq $F_SEQ)"
