#!/usr/bin/env bash
# Seeded chaos soak (run by ctest as `chaos_soak`):
#
# For each fault profile, a 4-worker localhost TCP cluster trains with
# every rank's transport wrapped in the seeded fault injector
# (treeserver_node --chaos-profile/--chaos-seed). Dropped, duplicated,
# delayed, reordered, corrupted and partitioned messages must all be
# absorbed by the reliable-delivery layer: the trained forest has to be
# byte-identical to the fault-free in-process reference.
#
# The first chaos run also exercises --checkpoint-dir: the master must
# leave a durable, loadable checkpoint file behind.
#
# Environment knobs (used by the check.sh smoke stage):
#   CHAOS_PROFILES  space-separated profile list
#                   (default: drop-heavy duplicate-storm partition-heal mixed)
#   CHAOS_SEED      base RNG seed, rank r uses CHAOS_SEED+r (default 20260808)
set -euo pipefail

NODE="${TREESERVER_NODE:?set TREESERVER_NODE to the treeserver_node binary}"
WORKERS=4
read -r -a PROFILES <<<"${CHAOS_PROFILES:-drop-heavy duplicate-storm partition-heal mixed}"
SEED="${CHAOS_SEED:-20260808}"
TMP="$(mktemp -d)"
PIDS=()

# Listen ports are drawn below the Linux default ephemeral range
# (32768-60999), where client sockets take their local ports, and from
# a band no other multi-process ctest uses, since `ctest -j` runs
# cluster_parity (20000-24999), chaos_soak (25000-27599) and
# fleet_failover (27600-32767) concurrently.
PORT_BASE=25000  # + RANDOM % 2500, 5 ports per cluster

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

# Deterministic job/dataset config shared by the reference and every
# chaos run. Large enough that the timed fault windows (partitions at
# 200-900ms, stalls at 500-900ms) open while the job is still running.
FLAGS=(--workers=$WORKERS --rows=20000 --features=12 --categorical=3
       --classes=3 --data-seed=11 --trees=8 --max-depth=9 --min-leaf=4
       --job-seed=5 --compers=2 --replication=2)

peers_for() {
  local base=$1 peers=""
  for ((i = 0; i < WORKERS; i++)); do
    peers+="127.0.0.1:$((base + i)),"
  done
  echo "${peers}127.0.0.1:$((base + WORKERS))"
}

# run_chaos_cluster <out-file> <profile> <base-port> [master-extra-flag...]
run_chaos_cluster() {
  local out=$1 profile=$2 base=$3
  shift 3
  local peers; peers="$(peers_for "$base")"
  local wpids=()
  for ((i = 0; i < WORKERS; i++)); do
    "$NODE" --rank="$i" --peers="$peers" "${FLAGS[@]}" \
      --chaos-profile="$profile" --chaos-seed=$((SEED + i)) \
      --heartbeat-ms=20 --miss-limit=10 2>"$TMP/w$i.log" &
    wpids+=($!)
    PIDS+=($!)
  done
  "$NODE" --rank=master --peers="$peers" "${FLAGS[@]}" \
    --chaos-profile="$profile" --chaos-seed=$((SEED + WORKERS)) \
    --heartbeat-ms=20 --miss-limit=10 --out="$out" "$@" \
    2>"$TMP/master.log" &
  local master_pid=$!
  PIDS+=("$master_pid")

  if ! wait "$master_pid"; then
    echo "FAIL: master exited non-zero under profile $profile (log below)" >&2
    cat "$TMP/master.log" >&2
    return 1
  fi
  for ((i = 0; i < WORKERS; i++)); do
    wait "${wpids[$i]}" 2>/dev/null || true
  done
  PIDS=()
  grep -q "chaos: rank -1 injecting profile '$profile'" "$TMP/master.log" || {
    echo "FAIL: master log shows no fault injection for $profile" >&2
    return 1
  }
  return 0
}

echo "== fault-free in-process reference =="
"$NODE" --mode=inproc "${FLAGS[@]}" --out="$TMP/ref.bin"
[[ -s "$TMP/ref.bin" ]] || { echo "FAIL: empty reference forest" >&2; exit 1; }

first=1
for profile in "${PROFILES[@]}"; do
  echo "== chaos soak: profile $profile (seed $SEED) =="
  extra=()
  if [[ $first == 1 ]]; then
    mkdir -p "$TMP/ckpt"
    extra=(--checkpoint-dir="$TMP/ckpt" --checkpoint-period-ms=200)
  fi
  run_chaos_cluster "$TMP/$profile.bin" "$profile" \
    $((PORT_BASE + RANDOM % 2500)) ${extra[@]+"${extra[@]}"}
  cmp "$TMP/ref.bin" "$TMP/$profile.bin" || {
    echo "FAIL: forest under profile $profile differs from reference" >&2
    exit 1
  }
  if [[ $first == 1 ]]; then
    [[ -s "$TMP/ckpt/master.ckpt" ]] || {
      echo "FAIL: master left no durable checkpoint" >&2
      exit 1
    }
    echo "PASS: durable checkpoint written ($(wc -c <"$TMP/ckpt/master.ckpt") bytes)"
    first=0
  fi
  echo "PASS: profile $profile byte-identical to fault-free reference"
done

echo "PASS: chaos soak (${PROFILES[*]}) converged byte-identically"
