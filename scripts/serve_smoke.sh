#!/usr/bin/env bash
# Production ingest smoke test.
#
# Drives a heterogeneous seeded fleet (mixed densities, variant and
# stale binaries, lossy channel, dropped acks) over real TCP against
# `cbi serve`, three times: with 1 shard, with 4, and with 2 shards
# that admit one unanswered delivery each, so concurrent connections
# are shed with `overloaded` NACKs and retransmit.  The server-side
# canonical analyses must be byte-identical.  Then the
# crash drill: a journaled server is kill -9'd mid-ingest, restarted
# with --resume (at a different shard count), and the same seeded fleet
# retransmits everything — idempotent dedup plus journal replay must
# land on the exact same analysis as the uninterrupted run.
#
# Usage: scripts/serve_smoke.sh [path-to-cbi-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

CBI="${1:-target/release/cbi}"
PROG=examples/profile_demo.mc
INPUTS=examples/profile_demo_inputs.txt
OUT="${SMOKE_OUT:-smoke-artifacts}"
mkdir -p "$OUT"

CLIENTS=12
RUNS=6000

# Whatever exit path we take (including set -e aborts), never leave a
# background server or fleet running.
SERVER=""
FLEET=""
cleanup() {
  [ -n "${SERVER:-}" ] && kill "$SERVER" 2>/dev/null || true
  [ -n "${FLEET:-}" ] && kill "$FLEET" 2>/dev/null || true
}
trap cleanup EXIT

# start_server <stdout-file> [extra serve flags...] — backgrounds the
# server, waits for its bound address, exports ADDR/SERVER.
start_server() {
  local txt=$1
  shift
  "$CBI" serve "$PROG" --scheme checks --addr 127.0.0.1:0 \
    --max-clients "$CLIENTS" --epoch-len 150 --mode eliminate "$@" \
    >"$txt" 2>>"$OUT/serve_smoke.log" &
  SERVER=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$txt" 2>/dev/null || true)
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  if [ -z "$ADDR" ]; then
    echo "FAIL: server never reported a bound address" >&2
    cat "$OUT/serve_smoke.log" >&2 || true
    exit 1
  fi
}

# The same seeded storm every time: what reaches the server is
# deterministic, so its analysis can be diffed byte for byte.
run_fleet() {
  "$CBI" fleet "$PROG" "$INPUTS" --serve "$1" \
    --scheme checks --clients "$CLIENTS" --runs "$RUNS" --batch-size 8 \
    --epoch-len 150 --densities 10:3,100:1 \
    --variant-fraction 0.25 --stale-fraction 0.2 \
    --drop 0.15 --truncate 0.1 --bit-flip 0.05 \
    --ack-drop 0.25 --streams 4 --seed 42 \
    --summary-out "$2"
}

echo "--- sharded determinism: 1 shard vs 4 ---"
start_server "$OUT/serve_s1.txt" --shards 1
run_fleet "$ADDR" "$OUT/fleet_s1.txt"
wait "$SERVER"
SERVER=""
tail -n +2 "$OUT/serve_s1.txt" >"$OUT/serve_analysis_s1.txt"

start_server "$OUT/serve_s4.txt" --shards 4
run_fleet "$ADDR" "$OUT/fleet_s4.txt"
wait "$SERVER"
SERVER=""
tail -n +2 "$OUT/serve_s4.txt" >"$OUT/serve_analysis_s4.txt"

diff -u "$OUT/serve_analysis_s1.txt" "$OUT/serve_analysis_s4.txt"
# The client-side channel accounting is seed-pure too.
diff -u "$OUT/fleet_s1.txt" "$OUT/fleet_s4.txt"

echo "--- shedding: 2 shards, queue cap 1, 4 acceptors ---"
start_server "$OUT/serve_shed.txt" --shards 2 --queue-cap 1 --acceptors 4
run_fleet "$ADDR" "$OUT/fleet_shed.txt"
wait "$SERVER"
SERVER=""
tail -n +2 "$OUT/serve_shed.txt" >"$OUT/serve_analysis_shed.txt"
# The server's summary (stderr) counts the sheds.
grep '^deliveries:' "$OUT/serve_smoke.log" | tail -n 1
# Only the analysis is diffed: overload retransmits legitimately change
# the fleet summary, and the fleet absorbs them without spending retries.
diff -u "$OUT/serve_analysis_s1.txt" "$OUT/serve_analysis_shed.txt"

echo "--- crash drill: kill -9 mid-ingest, resume, retransmit ---"
JOURNAL="$OUT/ingest.cbij"
rm -f "$JOURNAL"
start_server "$OUT/serve_crash.txt" --shards 1 --journal "$JOURNAL" --fsync every:8
run_fleet "$ADDR" "$OUT/fleet_crash.txt" &
FLEET=$!
# Let the journal absorb part of the stream, then pull the plug.
for _ in $(seq 1 500); do
  size=$(stat -c %s "$JOURNAL" 2>/dev/null || echo 0)
  [ "$size" -gt 2048 ] && break
  sleep 0.02
done
kill -9 "$SERVER" 2>/dev/null || true
SERVER=""
# The fleet's run was cut short; its failure is the expected outcome.
wait "$FLEET" 2>/dev/null || true
FLEET=""

# Restart from the journal — at a different shard count for good
# measure — and run the full seeded sweep again.  Replayed batches
# dedup as duplicates; everything lost in the crash recommits.
start_server "$OUT/serve_resume.txt" --shards 4 --resume "$JOURNAL" --fsync every:8
run_fleet "$ADDR" "$OUT/fleet_resume.txt"
wait "$SERVER"
SERVER=""
tail -n +2 "$OUT/serve_resume.txt" >"$OUT/serve_analysis_resume.txt"

echo "--- resumed analysis vs uninterrupted ---"
diff -u "$OUT/serve_analysis_s1.txt" "$OUT/serve_analysis_resume.txt"

echo "PASS: analysis is byte-identical at shards 1 and 4, under shedding, and across kill -9 + resume"
