#!/usr/bin/env bash
# Fleet simulation smoke test.
#
# Runs a small seeded community against the profile_demo bug: mixed
# sampling densities, single-function variant binaries, stale clients
# hitting the layout-hash handshake, and a lossy channel with retries —
# then diffs the integer-only fleet summary against the checked-in
# golden file.  Any drift in client profiling, VM scheduling, wire
# encoding, channel fault injection, ingest, or epoch aggregation shows
# up as a diff; the summary must also be byte-identical at any --jobs.
# The stderr line `target rank: N`, the target's rank under the §3.3
# model trained beside the merge, is diffed the same way: against its
# own golden file and across --jobs.
#
# Usage: scripts/fleet_smoke.sh [path-to-cbi-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

CBI="${1:-target/release/cbi}"
OUT="${SMOKE_OUT:-smoke-artifacts}"
GOLDEN=tests/golden/fleet_smoke_summary.txt
RANK_GOLDEN=tests/golden/fleet_smoke_target_rank.txt
mkdir -p "$OUT"

run_fleet() {
  "$CBI" fleet examples/profile_demo.mc examples/profile_demo_inputs.txt \
    --scheme checks --clients 12 --runs 600 --batch-size 8 --epoch-len 150 \
    --densities 10:3,100:1 --variant-fraction 0.25 --stale-fraction 0.2 \
    --drop 0.15 --truncate 0.1 --bit-flip 0.05 --target slot \
    --seed 42 --jobs "$1" --summary-out "$2"
}

run_fleet 4 "$OUT/fleet_summary.txt" 2> "$OUT/fleet_stderr.txt"
cat "$OUT/fleet_stderr.txt" >&2
echo "--- fleet summary vs golden ---"
diff -u "$GOLDEN" "$OUT/fleet_summary.txt"
grep '^target rank:' "$OUT/fleet_stderr.txt" > "$OUT/fleet_target_rank.txt"
echo "--- fleet target rank vs golden ---"
diff -u "$RANK_GOLDEN" "$OUT/fleet_target_rank.txt"

# The same storm sharded differently must not change a byte.
run_fleet 1 "$OUT/fleet_summary_serial.txt" 2> "$OUT/fleet_stderr_serial.txt"
diff -u "$OUT/fleet_summary.txt" "$OUT/fleet_summary_serial.txt"
grep '^target rank:' "$OUT/fleet_stderr_serial.txt" > "$OUT/fleet_target_rank_serial.txt"
diff -u "$OUT/fleet_target_rank.txt" "$OUT/fleet_target_rank_serial.txt"

echo "PASS: fleet summary and target rank match the golden files at jobs 1 and 4"
