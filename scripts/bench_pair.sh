#!/usr/bin/env bash
# Paired parent/change benchmark evidence (ROADMAP 9A).
#
# Builds cbibench on a parent revision and on the working tree — each
# through the harness's own manifest, each into its own target directory
# — then, for each WORKLOAD in turn, runs `cbibench measure` once per
# side per pair, alternating which side goes first, both sides of a pair
# on the same fresh seed.  It collects the last-line result objects, asks
# `cbibench check` for the verdicts under BENCHMARK.json's bounds, and
# prints the table EXPERIMENTS.md uses (median, quartiles, ratio, "lower
# in n/N") with the machine fingerprint.  From the same runs' `detail`
# lines it prints a second table of the scoped metrics (analysis_s,
# recover_s, ack latency, throughput, bytes per report), each run
# contributing its own median, so a scoped claim needs no extra series.  Nothing under the harness
# directory is touched; run length comes from BENCHMARK.json.  The exit
# status is non-zero if any workload's `check` is.
#
# Usage: scripts/bench_pair.sh PARENT_REV WORKLOAD[,WORKLOAD...]|all [PAIRS]
#
# State lives in .bench_pair/ (or $BENCH_PAIR_DIR): the parent checkout
# (a `git worktree`; an existing checkout of that commit there is reused,
# so a `git archive | tar -x` copy works where worktrees are unwelcome),
# both target directories, and one result file per side per workload, so
# the six workloads share two builds.  `git worktree remove` the parent
# when done.
set -euo pipefail
cd "$(dirname "$0")/.."
REPO=$PWD

USAGE="usage: scripts/bench_pair.sh PARENT_REV WORKLOAD[,WORKLOAD...]|all [PAIRS]"
PARENT_REV=${1:?$USAGE}
WORKLOADS=${2:?$USAGE}
PAIRS=${3:-10}
WORK=${BENCH_PAIR_DIR:-$REPO/.bench_pair}
MANIFEST=crates/bench/src/bin/cbibench/Cargo.toml
SECONDS_PER_RUN=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
if [ "$WORKLOADS" = all ]; then
  WORKLOADS=$(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json | paste -sd, -)
fi

parent=$(git rev-parse --verify "$PARENT_REV^{commit}")
change=$(git rev-parse HEAD)$(git diff --quiet HEAD || echo "+dirty")
mkdir -p "$WORK/run"
if [ ! -d "$WORK/parent-$parent" ]; then
  git worktree add --detach "$WORK/parent-$parent" "$parent" >&2
fi

build() { # <source dir> <target dir>
  (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
    --manifest-path "$MANIFEST") >&2
}
build "$WORK/parent-$parent" "$WORK/target-parent-$parent"
build "$REPO" "$WORK/target-change"
PARENT_BIN=$WORK/target-parent-$parent/release/cbibench
CHANGE_BIN=$WORK/target-change/release/cbibench

measure() { # <binary> <seed> <result output> <detail output>
  # cbibench keeps journals under ./.cbibench_tmp: run from scratch.
  local lines
  lines=$(cd "$WORK/run" && "$1" measure --workload "$WORKLOAD" --seed "$2" \
    --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 2)
  printf '%s\n' "$lines" | sed -n '1s/^detail //p' >>"$4"
  printf '%s\n' "$lines" | tail -n 1 >>"$3"
}

pair_workload() { # <workload>: its pairs, table and verdicts
  WORKLOAD=$1
  # One JSON result object per line, in pair order.
  parent_runs=$WORK/$WORKLOAD-parent.jsonl
  change_runs=$WORK/$WORKLOAD-change.jsonl
  parent_details=$WORK/$WORKLOAD-parent-detail.jsonl
  change_details=$WORK/$WORKLOAD-change-detail.jsonl
  : >"$parent_runs"
  : >"$change_runs"
  : >"$parent_details"
  : >"$change_details"
  seed_base=$(date +%s)
  for pair in $(seq 1 "$PAIRS"); do
    seed=$((seed_base + pair))
    if [ $((pair % 2)) -eq 1 ]; then
      measure "$PARENT_BIN" "$seed" "$parent_runs" "$parent_details"
      measure "$CHANGE_BIN" "$seed" "$change_runs" "$change_details"
    else
      measure "$CHANGE_BIN" "$seed" "$change_runs" "$change_details"
      measure "$PARENT_BIN" "$seed" "$parent_runs" "$parent_details"
    fi
    echo "pair $pair/$PAIRS (seed $seed) done" >&2
  done

  # Fold each side's runs into the result-file shape `cbibench check`
  # reads, and print the pair table.
  python3 - "$WORKLOAD" "$parent_runs" "$change_runs" \
    "$WORK/$WORKLOAD-parent.json" "$WORK/$WORKLOAD-change.json" \
    "$parent_details" "$change_details" <<'PY'
import json, statistics, sys

(workload, parent_runs, change_runs, parent_out, change_out,
 parent_details, change_details) = sys.argv[1:]
SCOPED = ("analysis_s", "recover_s", "ack_p50_us", "ack_p99_us",
          "reports_per_s", "bytes_per_report")

def load(path):
    return [json.loads(line) for line in open(path) if line.strip()]

def fold(runs, out):
    metrics = {}
    for run in runs:
        for name, m in run["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    result = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    json.dump({"benchmark": "cbibench", "workloads": {workload: result}}, open(out, "w"))
    return result

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))

def table(parent_metrics, change_metrics, names, pairs):
    """Rows of `name (unit) | median [q1, q3] | ... | ratio | lower in`
    over per-run values given as {name: {"unit", "values"}}."""
    print("| metric | parent median [q1, q3] | change median [q1, q3] | change / parent | change lower in |")
    print("|---|---|---|---|---|")
    for name in names:
        p, c = parent_metrics[name], change_metrics[name]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(p["values"]), quartiles(c["values"])
        lower = sum(cv < pv for pv, cv in zip(p["values"], c["values"]))
        ratio = cmed / pmed if pmed else float("nan")
        print(f"| `{name}` ({p['unit']}) | {pmed:.6g} [{pq1:.6g}, {pq3:.6g}] "
              f"| {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] | {ratio:.3f} | {lower}/{pairs} |")
    print()

def run_medians(path):
    """Each run's median of every scoped metric it has, in pair order."""
    metrics = {}
    for detail in load(path):
        for name in SCOPED:
            if name in detail["metrics"]:
                m = detail["metrics"][name]
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["median"])
    return metrics

parent, change = fold(load(parent_runs), parent_out), fold(load(change_runs), change_out)
pairs = len(parent["metrics"]["wall_s"]["values"])
print(f"### `{workload}`, {pairs} alternating pairs\n")
table(parent["metrics"], change["metrics"], parent["metrics"], pairs)
parent_scoped, change_scoped = run_medians(parent_details), run_medians(change_details)
scoped = [name for name in SCOPED if name in parent_scoped and name in change_scoped]
if scoped:
    print(f"Scoped metrics of `{workload}`, each run's median from its `detail` line:\n")
    table(parent_scoped, change_scoped, scoped, pairs)
for name in ("wall_s", "setup_s", "peak_rss_mb"):
    runs = lambda side: " ".join(f"{v:.4g}" for v in side["metrics"][name]["values"])
    print(f"`{name}` runs in pair order — parent: {runs(parent)}; change: {runs(change)}.")
print(f"\nfailed operations: parent {parent['failed']}/{parent['attempted']}, "
      f"change {change['failed']}/{change['attempted']}\n")
PY

  echo "machine: $(nproc) cpus, $(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo | head -n 1)," \
    "kernel $(uname -r), $(rustc -V)"
  echo "parent $parent, change $change, seeds $((seed_base + 1))..$((seed_base + PAIRS))," \
    "$SECONDS_PER_RUN s per run"
  echo
  echo '```'
  "$CHANGE_BIN" check "$WORK/$WORKLOAD-parent.json" "$WORK/$WORKLOAD-change.json" || status=$?
  echo '```'
  echo
}

# A failed check is remembered, not fatal: the remaining workloads run.
status=0
for workload in ${WORKLOADS//,/ }; do
  pair_workload "$workload"
done
exit "$status"
