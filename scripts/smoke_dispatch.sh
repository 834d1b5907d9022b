#!/usr/bin/env bash
# smoke_dispatch.sh — distributed-dispatch smoke test.
#
# Boots a coordinator (fedserve -remote) plus two -worker processes on
# localhost, runs a small sweep across both workers, then runs the same
# sweep on a plain local-backend fedserve and asserts the aggregated
# /result responses are byte-for-byte identical (the env_cache counters are
# stripped first: they live on whichever side builds environments, workers
# remotely vs. the server pool locally — everything else must match
# exactly: fingerprints, counts, groups, rendered table). Then SIGKILLs a
# WAL-backed coordinator mid-sweep and asserts it recovers, finishes the
# sweep, and that what it stored and aggregates equals the local backend's
# run of the same sweep byte-for-byte.
#
#   scripts/smoke_dispatch.sh          # used by CI's dispatch-smoke job
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "smoke_dispatch: jq is required"; exit 1; }

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/fedserve" ./cmd/fedserve

COORD_ADDR="127.0.0.1:18091"
LOCAL_ADDR="127.0.0.1:18092"
# Six cells for two single-slot workers: each must come back for more, so at
# least one lease is granted on an upload's ack rather than on a poll.
SWEEP='{"methods":["fedavg"],"seed_count":6,"clients":[4],"sample_rates":[0.5],"local_epochs":[1],"model":"linear","rounds":8,"effort":0.01,"probes":["collapse"]}'

wait_up() { # addr
  for _ in $(seq 1 100); do
    curl -sf "http://$1/v1/experiments" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "smoke_dispatch: server at $1 never came up"; exit 1
}

wait_result() { # addr sweep_id outfile
  for _ in $(seq 1 300); do
    code=$(curl -s -o "$3" -w '%{http_code}' "http://$1/v1/sweeps/$2/result")
    [ "$code" = 200 ] && return 0
    [ "$code" = 202 ] || { echo "smoke_dispatch: /result returned $code: $(cat "$3")"; exit 1; }
    sleep 0.2
  done
  echo "smoke_dispatch: sweep $2 on $1 never finished"; exit 1
}

W1_OBS="127.0.0.1:18093"
W2_OBS="127.0.0.1:18094"

echo "== coordinator + 2 workers"
"$WORK/fedserve" -remote -addr "$COORD_ADDR" -store "$WORK/remote-store" -lease 5s &
PIDS+=($!)
wait_up "$COORD_ADDR"
"$WORK/fedserve" -worker -join "http://$COORD_ADDR" -name w1 -obs-addr "$W1_OBS" &
PIDS+=($!)
"$WORK/fedserve" -worker -join "http://$COORD_ADDR" -name w2 -obs-addr "$W2_OBS" &
PIDS+=($!)

remote_id=$(curl -sf -X POST "http://$COORD_ADDR/v1/sweeps" -d "$SWEEP" | jq -r .id)
echo "   sweep $remote_id submitted to the remote backend"
wait_result "$COORD_ADDR" "$remote_id" "$WORK/remote.json"

echo "== scraping /metrics (coordinator + both workers)"
# metric FILE SERIES prints the value of an exact series (0 if absent).
metric() { awk -v s="$2" '$1 == s { print $2; found = 1 } END { if (!found) print 0 }' "$1"; }

require_nonzero() { # file series...
  local file="$1"; shift
  for s in "$@"; do
    v=$(metric "$file" "$s")
    awk -v v="$v" 'BEGIN { exit !(v > 0) }' \
      || { echo "smoke_dispatch: $file: series $s is missing or zero (got '$v')"; exit 1; }
  done
}

curl -sf "http://$COORD_ADDR/metrics" > "$WORK/coord.metrics"
curl -sf "http://$W1_OBS/metrics"     > "$WORK/w1.metrics"
curl -sf "http://$W2_OBS/metrics"     > "$WORK/w2.metrics"

# Coordinator: leases were granted, results stored, artifacts written, and
# the HTTP layer saw the sweep submission.
require_nonzero "$WORK/coord.metrics" \
  fedwcm_dispatch_lease_wait_seconds_count \
  fedwcm_dispatch_lease_hold_seconds_count \
  fedwcm_dispatch_leases_on_ack_total \
  'fedwcm_dispatch_uploads_total{status="stored"}' \
  fedwcm_store_puts_total \
  fedwcm_go_goroutines
# Workers: lease/upload counters live on whichever worker won each cell, so
# assert the fleet-wide sums — exactly one lease and one stored upload per
# cell, a lease that arrived on an ack counting like a polled one; each
# worker must at least be scrapeable and report a live runtime.
require_nonzero "$WORK/w1.metrics" fedwcm_go_goroutines
require_nonzero "$WORK/w2.metrics" fedwcm_go_goroutines
for series in fedwcm_worker_leases_total 'fedwcm_worker_uploads_total{status="stored"}'; do
  total=$(awk -v a="$(metric "$WORK/w1.metrics" "$series")" -v b="$(metric "$WORK/w2.metrics" "$series")" 'BEGIN { print a + b }')
  [ "$total" = 6 ] || { echo "smoke_dispatch: fleet-wide $series = $total, want 6"; exit 1; }
done
# Worker health surface: registered workers must report ready.
for obs in "$W1_OBS" "$W2_OBS"; do
  curl -sf "http://$obs/healthz" >/dev/null || { echo "smoke_dispatch: $obs/healthz failed"; exit 1; }
  curl -sf "http://$obs/readyz"  >/dev/null || { echo "smoke_dispatch: $obs/readyz not ready"; exit 1; }
done
echo "   coordinator and worker metrics all present and nonzero"

echo "== local-backend reference"
"$WORK/fedserve" -addr "$LOCAL_ADDR" -store "$WORK/local-store" -workers 2 &
PIDS+=($!)
wait_up "$LOCAL_ADDR"
local_id=$(curl -sf -X POST "http://$LOCAL_ADDR/v1/sweeps" -d "$SWEEP" | jq -r .id)
[ "$local_id" = "$remote_id" ] || { echo "smoke_dispatch: sweep ids diverge: $local_id vs $remote_id"; exit 1; }
wait_result "$LOCAL_ADDR" "$local_id" "$WORK/local.json"

echo "== comparing aggregated results"
# env_cache lives on whichever side builds environments; dispatch (the
# control-plane snapshot) exists only on the remote backend. Everything
# else must match byte-for-byte.
jq -S 'del(.env_cache, .dispatch)' "$WORK/remote.json" > "$WORK/remote.canon.json"
jq -S 'del(.env_cache, .dispatch)' "$WORK/local.json" > "$WORK/local.canon.json"
if ! cmp -s "$WORK/remote.canon.json" "$WORK/local.canon.json"; then
  echo "smoke_dispatch: results diverge between backends:"
  diff "$WORK/local.canon.json" "$WORK/remote.canon.json" || true
  exit 1
fi
computed=$(jq -r .computed "$WORK/remote.json")
[ "$computed" = 6 ] || { echo "smoke_dispatch: expected 6 computed cells, got $computed"; exit 1; }

# Artifact files must match bit-for-bit across the two stores — probe
# readings included: the sweep carries the collapse probe, so every
# artifact's metrics crossed the worker→coordinator wire hop.
for f in $(cd "$WORK/local-store" && find . -name '*.json'); do
  cmp -s "$WORK/local-store/$f" "$WORK/remote-store/$f" \
    || { echo "smoke_dispatch: artifact $f differs between stores"; exit 1; }
  grep -q '"concentration"' "$WORK/remote-store/$f" \
    || { echo "smoke_dispatch: artifact $f carries no probe reading"; exit 1; }
  # One inode per completed cell: the coordinator appended the cell's lease
  # span to the store-wide span log instead of writing a file beside it.
  fp=$(basename "$f" .json)
  grep "\"trace\":\"$fp\"" "$WORK/remote-store/traces.jsonl" | grep -q '"name":"dispatch.lease"' \
    || { echo "smoke_dispatch: traces.jsonl has no dispatch.lease line for $fp"; exit 1; }
done
[ -z "$(find "$WORK/remote-store" -name '*.trace.jsonl')" ] \
  || { echo "smoke_dispatch: per-run trace files are back in the store"; exit 1; }

echo "== WAL crash recovery: SIGKILL the coordinator mid-sweep"
# A WAL-backed coordinator is killed with no warning while a bigger sweep
# is in flight, then restarted on the same log + store. The restarted
# process must replay the journaled queue, the worker must re-attach on
# its own, and resubmitting the same sweep must coalesce onto the
# recovered jobs and finish with every cell accounted for.
WAL_ADDR="127.0.0.1:18095"
# Slower cells than the equivalence sweep on purpose, and eight of them: the
# kill must land while jobs are still journaled in the WAL, not in the gap
# after the last complete compacted the log. (With four ≈ 0.1 s cells the
# kill regularly landed at 3/4 done and the last cell finished before it.)
WAL_SWEEP='{"methods":["fedavg"],"seed_count":8,"clients":[8],"sample_rates":[0.5],"local_epochs":[2],"model":"mlp","rounds":30,"effort":0.2}'

# Only the coordinator journals: -wal without -remote must refuse to start
# (exit 2 within a second), not serve a local pool that journals nothing.
rc=0
timeout 1 "$WORK/fedserve" -addr "$WAL_ADDR" -store "$WORK/wal-store" \
  -wal "$WORK/coord.wal" 2>"$WORK/refused.log" || rc=$?
[ "$rc" = 2 ] && grep -q -- '-remote' "$WORK/refused.log" \
  || { echo "smoke_dispatch: fedserve -wal without -remote exited $rc, want 2 and a line naming -remote: $(cat "$WORK/refused.log")"; exit 1; }

"$WORK/fedserve" -remote -addr "$WAL_ADDR" -store "$WORK/wal-store" -lease 5s \
  -wal "$WORK/coord.wal" 2>"$WORK/coord1.log" &
WAL_PID=$!
PIDS+=("$WAL_PID")
wait_up "$WAL_ADDR"
"$WORK/fedserve" -worker -join "http://$WAL_ADDR" -name w3 &
PIDS+=($!)

wal_id=$(curl -sf -X POST "http://$WAL_ADDR/v1/sweeps" -d "$WAL_SWEEP" | jq -r .id)
echo "   sweep $wal_id submitted to the WAL-backed coordinator"

# Wait until the sweep is genuinely mid-flight: >=1 cell finished, >=2 not
# (one may still finish between this poll and the kill).
for _ in $(seq 1 300); do
  summary=$(curl -s "http://$WAL_ADDR/v1/sweeps/$wal_id")
  done_cells=$(jq -r '(.counts.done // 0) + (.counts.cached // 0)' <<<"$summary")
  total_cells=$(jq -r .total <<<"$summary")
  [ "$done_cells" -ge 1 ] && [ "$done_cells" -le $((total_cells - 2)) ] && break
  sleep 0.1
done
[ "${done_cells:-0}" -ge 1 ] || { echo "smoke_dispatch: sweep never got mid-flight"; exit 1; }

kill -9 "$WAL_PID"
echo "   coordinator SIGKILLed with $done_cells/$total_cells cells done"

"$WORK/fedserve" -remote -addr "$WAL_ADDR" -store "$WORK/wal-store" -lease 5s \
  -wal "$WORK/coord.wal" 2>"$WORK/coord2.log" &
PIDS+=($!)
wait_up "$WAL_ADDR"
grep -q 'jobs recovered' "$WORK/coord2.log" \
  || { echo "smoke_dispatch: restarted coordinator logged no WAL recovery:"; cat "$WORK/coord2.log"; exit 1; }
recovered=$(sed -n 's/.*(\([0-9]*\) jobs recovered).*/\1/p' "$WORK/coord2.log" | head -1)
[ "${recovered:-0}" -ge 1 ] || { echo "smoke_dispatch: expected >=1 recovered job, got '${recovered:-}'"; exit 1; }
echo "   restarted coordinator replayed $recovered journaled jobs"

wal_id2=$(curl -sf -X POST "http://$WAL_ADDR/v1/sweeps" -d "$WAL_SWEEP" | jq -r .id)
[ "$wal_id2" = "$wal_id" ] || { echo "smoke_dispatch: sweep id changed across restart: $wal_id2 vs $wal_id"; exit 1; }
wait_result "$WAL_ADDR" "$wal_id2" "$WORK/wal.json"
wal_total=$(jq -r '.cached + .computed' "$WORK/wal.json")
wal_failed=$(jq -r .failed "$WORK/wal.json")
[ "$wal_total" = 8 ] && [ "$wal_failed" = 0 ] \
  || { echo "smoke_dispatch: post-recovery sweep: cached+computed=$wal_total failed=$wal_failed, want 8/0"; exit 1; }
echo "   post-recovery sweep complete: cached+computed=$wal_total, 0 failed"

# The recovered topology must agree with the local backend like the
# in-memory one did above: same sweep on the still-running reference server,
# every artifact of it bit-identical in the WAL coordinator's store, and the
# same aggregate once the fields that say who computed what are stripped
# (the restart turned some of the WAL side's cells into cache hits).
wal_local_id=$(curl -sf -X POST "http://$LOCAL_ADDR/v1/sweeps" -d "$WAL_SWEEP" | jq -r .id)
[ "$wal_local_id" = "$wal_id" ] || { echo "smoke_dispatch: WAL sweep ids diverge: $wal_local_id vs $wal_id"; exit 1; }
wait_result "$LOCAL_ADDR" "$wal_local_id" "$WORK/wal-local.json"
for fp in $(curl -sf "http://$LOCAL_ADDR/v1/sweeps/$wal_local_id" | jq -r '.cells[].id'); do
  f="${fp:0:2}/$fp.json"
  cmp -s "$WORK/local-store/$f" "$WORK/wal-store/$f" \
    || { echo "smoke_dispatch: artifact $f differs between the local and the recovered WAL store"; exit 1; }
done
jq -S 'del(.env_cache, .dispatch, .cached, .computed)' "$WORK/wal.json" > "$WORK/wal.canon.json"
jq -S 'del(.env_cache, .dispatch, .cached, .computed)' "$WORK/wal-local.json" > "$WORK/wal-local.canon.json"
if ! cmp -s "$WORK/wal.canon.json" "$WORK/wal-local.canon.json"; then
  echo "smoke_dispatch: recovered WAL sweep diverges from the local backend:"
  diff "$WORK/wal-local.canon.json" "$WORK/wal.canon.json" || true
  exit 1
fi
echo "   recovered WAL topology agrees with the local backend byte-for-byte"

echo "smoke_dispatch: OK — remote (2 workers), WAL-recovered and local backends agree byte-for-byte, and a SIGKILLed WAL coordinator recovers mid-sweep"
