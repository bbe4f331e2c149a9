#!/usr/bin/env bash
# Multi-bug iterative isolation smoke test.
#
# Generates a small multi-bug corpus at a fixed seed, runs the §3.3
# isolation loop across all seven scorers at two sampling densities with
# --jobs 1 and --jobs 4, and diffs the integer-only summary against the
# checked-in golden file.  The two jobs settings must produce
# byte-identical summaries; any drift in planting, campaign scheduling,
# scoring arithmetic, or cluster attribution shows up as a diff.
#
# Usage: scripts/isolate_smoke.sh [path-to-cbi-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

CBI="${1:-target/release/cbi}"
OUT="${SMOKE_OUT:-smoke-artifacts}"
GOLDEN=tests/golden/isolate_smoke_summary.txt
mkdir -p "$OUT"

"$CBI" corpus generate "$OUT/isolate-corpus" --size 2 --seed 31 --trials 48 --bugs 2

"$CBI" isolate --corpus "$OUT/isolate-corpus" --densities 1,10 \
  --scorers ochiai,tarantula,jaccard,increase,importance,posterior,odds --jobs 1 \
  --out "$OUT/isolate_report_j1.txt" --summary-out "$OUT/isolate_summary_j1.txt"
"$CBI" isolate --corpus "$OUT/isolate-corpus" --densities 1,10 \
  --scorers ochiai,tarantula,jaccard,increase,importance,posterior,odds --jobs 4 \
  --out "$OUT/isolate_report_j4.txt" --summary-out "$OUT/isolate_summary_j4.txt"

echo "--- jobs 1 vs jobs 4 ---"
diff -u "$OUT/isolate_report_j1.txt" "$OUT/isolate_report_j4.txt"

echo "--- isolation summary vs golden ---"
diff -u "$GOLDEN" "$OUT/isolate_summary_j1.txt"

echo "PASS: isolation summary matches the golden and is jobs-invariant"
