#!/usr/bin/env bash
# End-to-end smoke of the multi-process cluster over a Unix-domain socket.
#
# Phase 1: phodis_server + 3 phodis_worker processes with 5% frame drops;
#          one worker is SIGKILLed mid-run (lease expiry must recover its
#          tasks). Two workers run 2 task slots each (--threads 2); the
#          victim runs the default one slot per core, so it holds up to
#          nproc leases when it is killed. Slots must not change a bit of
#          the tally: the server must report a bitwise-identical serial
#          cross-check.
# Phase 2: server with --checkpoint and --merge-incremental (results
#          folded into one running tally, checkpointed as merged state)
#          is SIGKILLed mid-run and restarted; the restarted server must
#          report that it resumed the checkpoint (so its plan-identity
#          check ran), the surviving two-slot worker reconnects and the
#          resumed run must still match the serial tally bitwise. The
#          checkpoint is the run's only state file (it carries the plan's
#          identity): no sidecar may sit beside it when the run ends.
# Phase 3: the whole cluster runs the batched packet loop
#          (--kernel-mode packet on the server, and explicitly on the
#          workers). The merged tally must match the server's packet-mode
#          rerun bitwise AND pass the packet-vs-scalar statistical
#          equivalence check against an independently computed scalar
#          reference of the same plan. Its two workers run 2 and 1 task
#          slots under a 1 s lease, so the phase stays within 4 cores.
#
# Every phase asks the server for a cluster-wide metrics report
# (--metrics-json) and cross-checks its counters: phase 1 must show
# injected frame drops and the killed worker's lease expiry; phase 2 runs
# fault-free and must show zero drops; phase 3 must show at most one
# worker metrics snapshot per process (never one per slot) and, summed
# over those snapshots, at least one executed task per task in the plan
# (unless a lease expired and a busy process missed the drain). Every
# phase's report must also carry exactly one net_server_shutdown_seconds
# observation: the server's exit tail, recorded before the report is
# written.
#
# Usage: cluster_smoke.sh PATH_TO_phodis_server PATH_TO_phodis_worker
#        [ARTIFACT_DIR]
# When ARTIFACT_DIR is given, the metrics reports and trace files are
# copied there (CI uploads them).
set -u

SERVER_BIN=${1:?usage: cluster_smoke.sh SERVER_BIN WORKER_BIN}
WORKER_BIN=${2:?usage: cluster_smoke.sh SERVER_BIN WORKER_BIN}
ARTIFACT_DIR=${3:-}

TMP=$(mktemp -d "${TMPDIR:-/tmp}/phodis_smoke.XXXXXX")
cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) >/dev/null 2>&1
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "cluster_smoke: FAIL: $1" >&2
  for log in "$TMP"/*.log; do
    echo "--- $log ---" >&2
    cat "$log" >&2
  done
  exit 1
}

wait_for_socket() {
  for _ in $(seq 150); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  return 1
}

# counter_value FILE NAME LABELS — print the counter's value from a
# metrics report (the writer emits one metric object per line, so plain
# sed suffices). LABELS is the literal label-object body, e.g.
# '"side": "server"' or '' for an unlabeled metric. Prints 0 if absent.
counter_value() {
  local v
  v=$(sed -n "s/.*\"name\": \"$2\", \"labels\": {$3}, \"kind\": \"counter\", \"value\": \([0-9][0-9]*\).*/\1/p" "$1" | head -1)
  echo "${v:-0}"
}

# histogram_observations FILE NAME — print the observation count of an
# unlabeled histogram in a metrics report. Prints 0 if absent.
histogram_observations() {
  local v
  v=$(sed -n "s/.*\"name\": \"$2\", \"labels\": {}, \"kind\": \"histogram\", .*\"observations\": \([0-9][0-9]*\).*/\1/p" "$1" | head -1)
  echo "${v:-0}"
}

# expect_one_shutdown PHASE FILE — the server's one net::Server shutdown
# (the exit tail after the last result) must be in its report exactly
# once. Only the count is checked: its duration varies too much under
# sanitizers to bound here (the latency bound lives in
# test_net_transport).
expect_one_shutdown() {
  local n
  n=$(histogram_observations "$2" net_server_shutdown_seconds)
  [ "$n" -eq 1 ] ||
    fail "$1: expected 1 net_server_shutdown_seconds observation, got $n"
}

save_artifacts() {
  [ -n "$ARTIFACT_DIR" ] || return 0
  mkdir -p "$ARTIFACT_DIR"
  cp -f "$TMP"/*.json "$ARTIFACT_DIR"/ 2>/dev/null || true
}

echo "== Phase 1: 3 workers (2 with two slots), 5% drops, one SIGKILLed =="
SOCK="$TMP/phase1.sock"
METRICS1="$TMP/metrics_phase1.json"
"$SERVER_BIN" --listen "unix:$SOCK" --photons 120000 --chunk 4000 \
  --seed 11 --lease 1.0 --drop 0.05 \
  --metrics-json "$METRICS1" --trace "$TMP/trace_phase1.json" \
  >"$TMP/server1.log" 2>&1 &
SERVER=$!
wait_for_socket "$SOCK" || fail "phase 1 server never bound $SOCK"

"$WORKER_BIN" --connect "unix:$SOCK" --name smoke-w0 --threads 2 \
  --reconnect-attempts 5 >"$TMP/w0.log" 2>&1 &
W0=$!
"$WORKER_BIN" --connect "unix:$SOCK" --name smoke-w1 --threads 2 \
  --reconnect-attempts 5 >"$TMP/w1.log" 2>&1 &
W1=$!
"$WORKER_BIN" --connect "unix:$SOCK" --name smoke-victim \
  --reconnect-attempts 5 >"$TMP/victim.log" 2>&1 &
VICTIM=$!

sleep 1  # let the victim lease a task, then kill it holding the lease
kill -9 "$VICTIM" >/dev/null 2>&1

wait "$SERVER"
SERVER_RC=$?
[ "$SERVER_RC" -eq 0 ] || fail "phase 1 server exited $SERVER_RC"
grep -q "bitwise-identical: yes" "$TMP/server1.log" ||
  fail "phase 1 tally did not match serial bitwise"
kill "$W0" "$W1" >/dev/null 2>&1

# The metrics report must reflect the faults this phase configured:
# --drop 0.05 on the server side means injected frame drops, and the
# SIGKILLed victim left a lease behind that had to expire to recover
# its task.
[ -f "$METRICS1" ] || fail "phase 1 server wrote no metrics report"
DROPPED=$(counter_value "$METRICS1" net_frames_dropped_total '"side": "server"')
[ "$DROPPED" -gt 0 ] ||
  fail "phase 1: --drop 0.05 configured but net_frames_dropped_total{side=server} = $DROPPED"
EXPIRED=$(counter_value "$METRICS1" dist_server_lease_expirations_total '')
[ "$EXPIRED" -ge 1 ] ||
  fail "phase 1: victim was SIGKILLed holding a lease but dist_server_lease_expirations_total = $EXPIRED"
expect_one_shutdown "phase 1" "$METRICS1"
echo "phase 1 metrics: frames dropped = $DROPPED, leases expired = $EXPIRED"

echo "== Phase 2: incremental-merge server SIGKILLed, resumed from checkpoint =="
SOCK="$TMP/phase2.sock"
CKPT="$TMP/phase2.ckpt"
"$SERVER_BIN" --listen "unix:$SOCK" --photons 120000 --chunk 4000 \
  --seed 11 --lease 1.0 --checkpoint "$CKPT" --merge-incremental \
  >"$TMP/server2a.log" 2>&1 &
SERVER=$!
wait_for_socket "$SOCK" || fail "phase 2 server never bound $SOCK"

"$WORKER_BIN" --connect "unix:$SOCK" --name smoke-w2 --threads 2 \
  --reconnect-attempts 40 >"$TMP/w2.log" 2>&1 &
W2=$!

# Kill as soon as the first checkpoint lands (not after a fixed sleep):
# on a fast host a fixed sleep can outlive the whole run, degenerating
# this phase into a fresh restart instead of a resume.
for _ in $(seq 300); do
  [ -f "$CKPT" ] && break
  kill -0 "$SERVER" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SERVER" 2>/dev/null ||
  fail "phase 2 server finished before the kill; resume not exercised"
kill -9 "$SERVER" >/dev/null 2>&1
sleep 0.5

METRICS2="$TMP/metrics_phase2.json"
"$SERVER_BIN" --listen "unix:$SOCK" --photons 120000 --chunk 4000 \
  --seed 11 --lease 1.0 --checkpoint "$CKPT" --merge-incremental \
  --metrics-json "$METRICS2" \
  >"$TMP/server2b.log" 2>&1 &
SERVER=$!
wait "$SERVER"
SERVER_RC=$?
[ "$SERVER_RC" -eq 0 ] || fail "phase 2 restarted server exited $SERVER_RC"
grep -q "bitwise-identical: yes" "$TMP/server2b.log" ||
  fail "phase 2 resumed tally did not match serial bitwise"
grep "resumed .* completed" "$TMP/server2b.log" ||
  fail "phase 2 restarted server did not resume the checkpoint"
SIDECARS=$(find "$TMP" -name 'phase2.ckpt?*')
[ -z "$SIDECARS" ] || fail "phase 2 left files beside its checkpoint: $SIDECARS"
kill "$W2" >/dev/null 2>&1

# Phase 2 ran without fault injection: the restarted server's report must
# show a clean wire.
[ -f "$METRICS2" ] || fail "phase 2 server wrote no metrics report"
DROPPED2=$(counter_value "$METRICS2" net_frames_dropped_total '"side": "server"')
[ "$DROPPED2" -eq 0 ] ||
  fail "phase 2: no --drop configured but net_frames_dropped_total{side=server} = $DROPPED2"
expect_one_shutdown "phase 2" "$METRICS2"
echo "phase 2 metrics: frames dropped = $DROPPED2 (fault-free, as configured)"

echo "== Phase 3: packet-mode cluster, statistical check vs scalar reference =="
SOCK="$TMP/phase3.sock"
METRICS3="$TMP/metrics_phase3.json"
PHASE3_TASKS=15  # 60000 photons in 4000-photon tasks
"$SERVER_BIN" --listen "unix:$SOCK" --photons 60000 --chunk 4000 \
  --seed 11 --lease 1.0 --kernel-mode packet --metrics-json "$METRICS3" \
  >"$TMP/server3.log" 2>&1 &
SERVER=$!
wait_for_socket "$SOCK" || fail "phase 3 server never bound $SOCK"

"$WORKER_BIN" --connect "unix:$SOCK" --name smoke-p0 --threads 2 \
  --kernel-mode packet --reconnect-attempts 5 >"$TMP/p0.log" 2>&1 &
P0=$!
"$WORKER_BIN" --connect "unix:$SOCK" --name smoke-p1 --threads 1 \
  --kernel-mode packet --reconnect-attempts 5 >"$TMP/p1.log" 2>&1 &
P1=$!

wait "$SERVER"
SERVER_RC=$?
[ "$SERVER_RC" -eq 0 ] || fail "phase 3 server exited $SERVER_RC"
# Packet mode is deterministic in itself: the merged distributed tally
# must equal the server's packet-mode rerun bit for bit...
grep -q "bitwise-identical: yes" "$TMP/server3.log" ||
  fail "phase 3 packet tally did not match the packet-mode rerun bitwise"
# ...and must sit within the statistical-equivalence envelope of the
# scalar reference (the physics contract between the two loops).
grep -q "packet-vs-scalar statistical check: .*PASS" "$TMP/server3.log" ||
  fail "phase 3 merged packet tally failed the statistical check vs scalar"
grep "packet-vs-scalar statistical check" "$TMP/server3.log"
kill "$P0" "$P1" >/dev/null 2>&1

# Two worker processes with 2 and 1 slots: each process ships one
# snapshot of its registry, so the server counts at most 2. When both
# land, together they executed every task at least once. A process whose
# every slot is still computing a re-leased duplicate when the run ends
# sees Shutdown only after the server's 400 ms drain, so its snapshot may
# miss the report; that needs a task to have outlived its 1 s lease
# (as under a sanitizer), and is only accepted then.
[ -f "$METRICS3" ] || fail "phase 3 server wrote no metrics report"
SNAPSHOTS=$(counter_value "$METRICS3" dist_server_metrics_snapshots_total '')
EXECUTED=$(counter_value "$METRICS3" dist_worker_tasks_total '')
EXPIRED3=$(counter_value "$METRICS3" dist_server_lease_expirations_total '')
[ "$SNAPSHOTS" -le 2 ] ||
  fail "phase 3: 2 worker processes but dist_server_metrics_snapshots_total = $SNAPSHOTS"
if [ "$SNAPSHOTS" -eq 2 ]; then
  [ "$EXECUTED" -ge "$PHASE3_TASKS" ] ||
    fail "phase 3: $PHASE3_TASKS tasks but cluster-wide dist_worker_tasks_total = $EXECUTED"
else
  [ "$EXPIRED3" -ge 1 ] ||
    fail "phase 3: no lease expired, yet only $SNAPSHOTS of 2 worker snapshots arrived"
fi
expect_one_shutdown "phase 3" "$METRICS3"
echo "phase 3 metrics: worker snapshots = $SNAPSHOTS, tasks executed = $EXECUTED, leases expired = $EXPIRED3"

save_artifacts
echo "cluster_smoke: PASS"
exit 0
