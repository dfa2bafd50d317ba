#!/usr/bin/env bash
# Fleet SLO smoke: boot two sectord shards behind sectorproxy, drive the
# real HTTP path with sectorload, and gate on the fleet objectives —
# no non-shed 5xx or transport failures, p99 of 200s (timed from each
# request's due time) at or under the threshold, and every sampled
# proxied answer identical to a direct backend answer.
#
# Usage: scripts/slo_smoke.sh [report.json]
set -euo pipefail
cd "$(dirname "$0")/.."

REPORT="${1:-slo_report.json}"
DURATION="${SLO_DURATION:-15s}"
RPS="${SLO_RPS:-60}"
MAX_P99_MS="${SLO_MAX_P99_MS:-2000}"

BIN="$(mktemp -d)"
B0=18481 B1=18482 FRONT=18480
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/sectord ./cmd/sectorproxy ./cmd/sectorload

wait_healthy() {
  for _ in $(seq 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "slo_smoke: $1 never became healthy" >&2
  return 1
}

"$BIN/sectord" -addr "localhost:$B0" -shard s0 &
pids+=($!)
"$BIN/sectord" -addr "localhost:$B1" -shard s1 &
pids+=($!)
wait_healthy "http://localhost:$B0"
wait_healthy "http://localhost:$B1"

"$BIN/sectorproxy" -addr "localhost:$FRONT" \
  -backends "http://localhost:$B0,http://localhost:$B1" &
pids+=($!)
wait_healthy "http://localhost:$FRONT"

# Open-loop load through the proxy, each request sent at its due time and
# timed from it. -verify compares sampled proxied answers with shard s0's
# direct answer, so a routing layer that edits answers fails the gate. Any
# non-shed 5xx or transport failure fails the run.
"$BIN/sectorload" \
  -url "http://localhost:$FRONT" \
  -rps "$RPS" -duration "$DURATION" \
  -verify "http://localhost:$B0" \
  -max-p99 "$MAX_P99_MS" \
  -report "$REPORT"

echo "slo_smoke: fleet met its SLO; report in $REPORT"
