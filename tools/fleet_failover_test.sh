#!/usr/bin/env bash
# Serving-fleet acceptance test (run by ctest as `fleet_failover`):
#
#  1. a router + N replica processes serve a pushed forest over
#     localhost TCP, each transport wrapped in the seeded fault
#     injector (FLEET_CHAOS profile);
#  2. one replica is SIGKILL'd mid-load — every accepted request must
#     still return the byte-identical single-process prediction, and
#     every rejected request must be visible in the fleet.shed counter
#     (the drive binary enforces both and exits non-zero otherwise);
#  3. a canary push of a second model followed by a forced rollback
#     must leave every surviving replica on the old version;
#  4. the router's /metrics + /statusz serve fleet.* mid-run, the
#     treeserver_top --fleet view renders them, and the merged trace
#     validates with the killed replica's lane allowed missing.
#
# Env knobs (the check.sh smoke stage shrinks these):
#   FLEET_REPLICAS (3)  FLEET_CHAOS (mixed)  FLEET_CHAOS_SEED (20260808)
#   FLEET_KILL_RANK (1) FLEET_REQUESTS (8000) FLEET_PERIOD_US (400)
#   FLEET_TRACE_OUT (optional: copy the merged trace here for CI)
set -euo pipefail

FLEET="${TREEFLEET:?set TREEFLEET to the treefleet binary}"
TOP="${TREESERVER_TOP:?set TREESERVER_TOP to the treeserver_top binary}"
REPLICAS="${FLEET_REPLICAS:-3}"
CHAOS="${FLEET_CHAOS:-mixed}"
CHAOS_SEED="${FLEET_CHAOS_SEED:-20260808}"
KILL_RANK="${FLEET_KILL_RANK:-1}"
REQUESTS="${FLEET_REQUESTS:-8000}"
PERIOD_US="${FLEET_PERIOD_US:-400}"
TMP="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

DATA=(--rows=2000 --features=8 --categorical=3 --classes=3 --data-seed=7)

peers_for() {
  local base=$1 peers=""
  for ((i = 0; i < REPLICAS; i++)); do
    peers+="127.0.0.1:$((base + i)),"
  done
  echo "${peers}127.0.0.1:$((base + REPLICAS))"
}

wait_healthy() {
  local port=$1
  for _ in $(seq 1 100); do
    if "$TOP" --fetch="127.0.0.1:$port/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: 127.0.0.1:$port/healthz never came up" >&2
  return 1
}

echo "== train v1 + v2 models =="
"$FLEET" train --out="$TMP/m1.bin" "${DATA[@]}" --trees=8 --max-depth=7 \
  --job-seed=17
"$FLEET" train --out="$TMP/m2.bin" "${DATA[@]}" --trees=8 --max-depth=7 \
  --job-seed=99
[[ -s "$TMP/m1.bin" && -s "$TMP/m2.bin" ]] || {
  echo "FAIL: training produced empty model files" >&2
  exit 1
}

# Listen ports are drawn below the Linux default ephemeral range
# (32768-60999), where client sockets take their local ports, and from
# a band no other multi-process ctest uses, since `ctest -j` runs
# cluster_parity (20000-24999), chaos_soak (25000-27599) and
# fleet_failover (27600-32767) concurrently.
BASE=$((27600 + RANDOM % 2500))       # REPLICAS + 1 ports
HTTP_PORT=$((30200 + RANDOM % 2500))
PEERS="$(peers_for "$BASE")"
CHAOS_FLAGS=()
[[ "$CHAOS" != none ]] && CHAOS_FLAGS=(--chaos-profile="$CHAOS")

echo "== launch $REPLICAS replicas (chaos=$CHAOS seed=$CHAOS_SEED) =="
RPIDS=()
for ((i = 0; i < REPLICAS; i++)); do
  "$FLEET" replica --rank="$i" --workers="$REPLICAS" --peers="$PEERS" \
    ${CHAOS_FLAGS[@]+"${CHAOS_FLAGS[@]}"} --chaos-seed=$((CHAOS_SEED + i)) \
    --trace=1 2>"$TMP/r$i.log" &
  RPIDS+=($!)
  PIDS+=($!)
done

echo "== drive load through the router =="
"$FLEET" drive --model="$TMP/m1.bin" --canary-model="$TMP/m2.bin" \
  --workers="$REPLICAS" --peers="$PEERS" "${DATA[@]}" \
  --requests="$REQUESTS" --period-us="$PERIOD_US" \
  ${CHAOS_FLAGS[@]+"${CHAOS_FLAGS[@]}"} --chaos-seed="$CHAOS_SEED" \
  --http-port="$HTTP_PORT" --trace=1 --trace-out="$TMP/trace.json" \
  --out="$TMP/preds.txt" 2>"$TMP/drive.log" &
DRIVE_PID=$!
PIDS+=("$DRIVE_PID")

wait_healthy "$HTTP_PORT"

# Kill a replica while the load loop is mid-flight.
sleep 1
kill -9 "${RPIDS[$KILL_RANK]}" 2>/dev/null || true
echo "== SIGKILL'd replica $KILL_RANK mid-load =="

# The router keeps serving: probe the observability plane mid-run.
METRICS="$("$TOP" --fetch="127.0.0.1:$HTTP_PORT/metrics" || true)"
grep -q "fleet_accepted" <<<"$METRICS" || {
  echo "FAIL: router /metrics lacks fleet_accepted" >&2
  exit 1
}
grep -q "fleet_shed" <<<"$METRICS" || {
  echo "FAIL: router /metrics lacks fleet_shed" >&2
  exit 1
}
STATUSZ="$("$TOP" --fetch="127.0.0.1:$HTTP_PORT/statusz" || true)"
grep -q '"role":"router"' <<<"$STATUSZ" || {
  echo "FAIL: router /statusz missing role (got: $STATUSZ)" >&2
  exit 1
}
"$TOP" --fleet="127.0.0.1:$HTTP_PORT" >"$TMP/fleet_view.txt" || {
  echo "FAIL: treeserver_top --fleet view failed" >&2
  exit 1
}
grep -q "router 127.0.0.1:$HTTP_PORT" "$TMP/fleet_view.txt" || {
  echo "FAIL: --fleet view did not render the router row" >&2
  cat "$TMP/fleet_view.txt" >&2
  exit 1
}
echo "PASS: /metrics + /statusz + --fleet view live mid-failover"

# The drive binary verifies parity, shed accounting and the canary
# rollback itself; its exit code is the core acceptance check.
if ! wait "$DRIVE_PID"; then
  echo "FAIL: drive exited non-zero (log below)" >&2
  cat "$TMP/drive.log" >&2
  exit 1
fi
cat "$TMP/drive.log" >&2
grep -q "canary rollback verified" "$TMP/drive.log" || {
  echo "FAIL: canary rollback leg did not run" >&2
  exit 1
}
[[ -s "$TMP/preds.txt" ]] || {
  echo "FAIL: no predictions were recorded" >&2
  exit 1
}
echo "PASS: parity + shed accounting + canary rollback under failover"

# Merged trace: the killed replica cannot answer the trace request, so
# exactly its lane may be missing.
[[ -s "$TMP/trace.json" ]] || {
  echo "FAIL: drive wrote no merged trace" >&2
  exit 1
}
"$TOP" --validate-trace="$TMP/trace.json" --expect-ranks="$REPLICAS" \
  --allow-missing-lanes=1 || {
  echo "FAIL: merged fleet trace invalid" >&2
  exit 1
}
if [[ -n "${FLEET_TRACE_OUT:-}" ]]; then
  cp "$TMP/trace.json" "$FLEET_TRACE_OUT"
fi
echo "PASS: merged trace valid with the dead replica's lane tolerated"

# Surviving replicas exit cleanly on the router's shutdown broadcast.
for ((i = 0; i < REPLICAS; i++)); do
  [[ "$i" == "$KILL_RANK" ]] && continue
  wait "${RPIDS[$i]}" 2>/dev/null || true
done
PIDS=()
echo "PASS: fleet failover test complete"
