#!/usr/bin/env bash
# Paper experiments smoke test.
#
# Runs each of the ten `cbi experiments` by name and diffs its output
# against the checked-in golden file.  The experiments are seeded and
# print the same bytes on every run, so any drift in the workloads,
# instrumentation, sampling transformation, VM op costs, campaign
# scheduling, elimination or regression shows up as a diff.
#
# Usage: scripts/experiments_smoke.sh [path-to-cbi-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

CBI="${1:-target/release/cbi}"
OUT="${SMOKE_OUT:-smoke-artifacts}/experiments"
GOLDEN=tests/golden/experiments
mkdir -p "$OUT"

for name in table1 table2 selective effectiveness ccrypt_study fig2 \
  ccrypt_overhead bc_study fig4 ablation; do
  "$CBI" experiments "$name" > "$OUT/$name.txt"
  echo "--- $name vs golden ---"
  diff -u "$GOLDEN/$name.txt" "$OUT/$name.txt"
done

echo "PASS: all ten experiments match their goldens"
