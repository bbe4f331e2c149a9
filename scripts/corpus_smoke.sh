#!/usr/bin/env bash
# Corpus ground-truth and multi-bug isolation smoke test.
#
# Generates two small corpora at fixed seeds and evaluates each with the
# one evaluator, diffing the integer-only summaries against checked-in
# golden files:
#
# 1. a single-fault corpus at 1/100 sampling under the default scorers;
# 2. a two-fault corpus at densities 1 and 1/10 under all seven scorers,
#    evaluated at --jobs 1 and --jobs 4, whose full reports must be
#    byte-identical.
#
# Any drift in generation, instrumentation layout, campaign scheduling,
# elimination, scoring arithmetic, or cluster attribution shows up as a
# diff.  A fault count per entry outside 1..=3 must be refused with
# exit 1 and a message naming the range.
#
# Usage: scripts/corpus_smoke.sh [path-to-cbi-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

CBI="${1:-target/release/cbi}"
OUT="${SMOKE_OUT:-smoke-artifacts}"
mkdir -p "$OUT"

"$CBI" corpus generate "$OUT/corpus" --size 25 --seed 7 --trials 32
"$CBI" corpus evaluate "$OUT/corpus" --densities 100 --jobs 4 \
  --out "$OUT/corpus_report.txt" --summary-out "$OUT/corpus_summary.txt"

"$CBI" corpus generate "$OUT/isolate-corpus" --size 2 --seed 31 --trials 48 --bugs 2
for jobs in 1 4; do
  "$CBI" corpus evaluate "$OUT/isolate-corpus" --densities 1,10 \
    --scorers ochiai,tarantula,jaccard,increase,importance,posterior,odds --jobs "$jobs" \
    --out "$OUT/isolate_report_j$jobs.txt" --summary-out "$OUT/isolate_summary_j$jobs.txt"
done

echo "--- --bugs outside 1..=3 is refused ---"
for bugs in 0 4; do
  status=0
  "$CBI" corpus generate "$OUT/refused-corpus" --size 1 --bugs "$bugs" \
    2>"$OUT/bugs_$bugs.err" || status=$?
  if [ "$status" -ne 1 ] || ! grep -q "from 1 to 3" "$OUT/bugs_$bugs.err"; then
    echo "FAIL: --bugs $bugs exited $status" >&2
    cat "$OUT/bugs_$bugs.err" >&2
    exit 1
  fi
done

echo "--- score summary vs golden ---"
diff -u tests/golden/corpus_smoke_summary.txt "$OUT/corpus_summary.txt"

echo "--- multi-bug jobs 1 vs jobs 4 ---"
diff -u "$OUT/isolate_report_j1.txt" "$OUT/isolate_report_j4.txt"

echo "--- multi-bug summary vs golden ---"
diff -u tests/golden/isolate_smoke_summary.txt "$OUT/isolate_summary_j1.txt"

echo "PASS: both summaries match their goldens, the reports are jobs-invariant, and bad --bugs is refused"
