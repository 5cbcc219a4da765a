#!/usr/bin/env bash
# Smoke-test the runtime introspection plane end to end:
#
#   1. run the CI micro-sweep with the live server attached,
#   2. poll /status until it reports every point done,
#   3. assert /metrics is well-formed Prometheus exposition with the
#      final counters,
#   4. produce an engine self-profile (table + folded stacks) from a
#      short flexsim run.
#
# The sweep reuses ci/microsweep.json (the tiny fabric), so the whole
# script runs in well under a minute. The expected point count is not
# written here: it is what /status reports as "total", cross-checked
# against the row count of the index.json the sweep writes.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18080
OUT=lake-smoke

rm -rf "$OUT"

go run ./cmd/flexfarm run -spec ci/microsweep.json -out "$OUT" \
  -serve "$ADDR" -serve-linger 60s -summary-every 0 &
FARM_PID=$!
trap 'kill $FARM_PID 2>/dev/null || true' EXIT

field() { echo "$1" | grep -o "\"$2\": *[0-9]*" | grep -o '[0-9]*$' || true; }

# Wait for the server to come up, then for the sweep to finish.
status="" TOTAL=0 done_count=0
for _ in $(seq 1 300); do
  if status=$(curl -sf "http://$ADDR/status" 2>/dev/null); then
    TOTAL=$(field "$status" total)
    done_count=$(field "$status" done)
    [ "${TOTAL:-0}" -gt 0 ] && [ "${done_count:-0}" -eq "$TOTAL" ] && break
  fi
  sleep 0.2
done
echo "final /status:"
echo "$status"
if [ "${TOTAL:-0}" -eq 0 ] || [ "${done_count:-0}" -ne "$TOTAL" ]; then
  echo "FAIL: /status never reported done == total (done=${done_count:-0} total=${TOTAL:-0})" >&2
  exit 1
fi
echo "$status" | grep -q '"failed": *0' || {
  echo "FAIL: sweep reported failures" >&2; exit 1; }
# The index is rebuilt just after the last point lands.
for _ in $(seq 1 50); do
  [ -s "$OUT/index.json" ] && break
  sleep 0.2
done
rows=$(field "$(head -c 200 "$OUT/index.json")" rows)
if [ "${rows:-0}" -ne "$TOTAL" ]; then
  echo "FAIL: /status total $TOTAL != ${rows:-0} rows in $OUT/index.json" >&2; exit 1
fi

# /metrics: well-formed exposition carrying the final counters.
metrics=$(curl -sf "http://$ADDR/metrics")
echo "final /metrics:"
echo "$metrics"
echo "$metrics" | grep -q '^# TYPE flexpass_points_done counter$' || {
  echo "FAIL: missing TYPE line for points_done" >&2; exit 1; }
echo "$metrics" | grep -q "^flexpass_points_done{entity=\"farm\"} $TOTAL\$" || {
  echo "FAIL: points_done != $TOTAL in exposition" >&2; exit 1; }
echo "$metrics" | grep -q "^flexpass_points_total{entity=\"farm\"} $TOTAL\$" || {
  echo "FAIL: points_total != $TOTAL in exposition" >&2; exit 1; }
# Every non-comment line must parse as name{entity="..."} value.
bad=$(echo "$metrics" | grep -v '^#' | grep -cEv '^[a-zA-Z_][a-zA-Z0-9_]*\{entity="[^"]*"\} -?[0-9]+$' || true)
if [ "$bad" -ne 0 ]; then
  echo "FAIL: $bad malformed exposition lines" >&2; exit 1
fi

kill $FARM_PID 2>/dev/null || true
wait $FARM_PID 2>/dev/null || true
trap - EXIT

# Engine self-profile: folded stacks must be non-empty and every line
# must carry the engine; prefix and a positive weight.
go run ./cmd/flexsim -duration 2 -profile-out engine.folded
test -s engine.folded || { echo "FAIL: engine.folded empty" >&2; exit 1; }
grep -qv '^engine;[^ ]* [0-9][0-9]*$' engine.folded && {
  echo "FAIL: malformed folded-stack lines:" >&2
  grep -v '^engine;[^ ]* [0-9][0-9]*$' engine.folded >&2
  exit 1
}
echo "folded profile:"
cat engine.folded

echo "introspection smoke OK"
