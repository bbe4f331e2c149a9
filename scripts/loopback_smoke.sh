#!/usr/bin/env bash
# Loopback remote-collection smoke test.
#
# Starts `cbi serve` on an ephemeral port with a journal, runs a sampled
# campaign that transmits its reports over TCP while also spooling them
# locally, then checks that the local spool and the server's spool are
# the same bytes, and that the server-side analyses (streaming
# elimination + batch regression) match the in-process `cbi analyze` of
# the local spool line for line.  Then it resumes a server from the journal and sends
# the spool again: the stream is already committed, so the transmit is
# answered `duplicate` and the resumed analysis is unchanged.
#
# Usage: scripts/loopback_smoke.sh [path-to-cbi-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

CBI="${1:-target/release/cbi}"
PROG=examples/profile_demo.mc
INPUTS=examples/profile_demo_inputs.txt
OUT="${SMOKE_OUT:-smoke-artifacts}"
mkdir -p "$OUT"

# Whatever exit path we take (including set -e aborts), never leave a
# background server running.
SERVER=""
cleanup() {
  [ -n "${SERVER:-}" ] && kill "$SERVER" 2>/dev/null || true
}
trap cleanup EXIT

# Waits for the server writing <transcript> to print its bound address
# and sets ADDR to it.
await_addr() { # <transcript> <log>
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$1" 2>/dev/null || true)
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  if [ -z "$ADDR" ]; then
    echo "FAIL: server never reported a bound address" >&2
    cat "$2" >&2 || true
    exit 1
  fi
  echo "server listening on $ADDR"
}

# Prints the elimination block of a server transcript.
elimination() { # <transcript>
  sed -n '/^universal falsehood:/,/^lambda /p' "$1" | sed '$d'
}

# The server exits after one connection; stdout carries the bound
# address followed by the analysis results.
rm -f "$OUT/serve.journal"
"$CBI" serve "$PROG" --scheme returns --addr 127.0.0.1:0 --max-clients 1 \
  --mode both --spool "$OUT/reports.cbr" --journal "$OUT/serve.journal" \
  >"$OUT/serve.txt" 2>"$OUT/serve.log" &
SERVER=$!
await_addr "$OUT/serve.txt" "$OUT/serve.log"

# Sampled campaign: transmit over loopback, spool locally.
"$CBI" campaign "$PROG" "$INPUTS" --scheme returns --density 10 --jobs 4 \
  --transmit "$ADDR" --spool "$OUT/local.cbr"

wait "$SERVER"
SERVER=""

# Split the server transcript into its elimination and regression blocks.
elimination "$OUT/serve.txt" >"$OUT/serve_elim.txt"
sed -n '/^lambda /,$p' "$OUT/serve.txt" >"$OUT/serve_regress.txt"

# The server spools exactly the stream the campaign spooled locally.
echo "--- spool (server vs local) ---"
cmp "$OUT/local.cbr" "$OUT/reports.cbr"

# In-process analyses of the local spool.
"$CBI" analyze "$OUT/local.cbr" "$PROG" --scheme returns \
  --mode eliminate >"$OUT/local_elim.txt"
"$CBI" analyze "$OUT/local.cbr" "$PROG" --scheme returns \
  --mode regress >"$OUT/local_regress.txt"

echo "--- elimination (server vs in-process) ---"
diff -u "$OUT/serve_elim.txt" "$OUT/local_elim.txt"
echo "--- regression (server vs in-process) ---"
diff -u "$OUT/serve_regress.txt" "$OUT/local_regress.txt"

# Resume from the journal and send the spool — the same stream — again.
"$CBI" serve "$PROG" --scheme returns --addr 127.0.0.1:0 --max-clients 1 \
  --mode both --resume "$OUT/serve.journal" \
  >"$OUT/resumed.txt" 2>"$OUT/resumed.log" &
SERVER=$!
await_addr "$OUT/resumed.txt" "$OUT/resumed.log"
"$CBI" transmit "$OUT/reports.cbr" --to "$ADDR" 2>"$OUT/transmit.log"
wait "$SERVER"
SERVER=""
cat "$OUT/transmit.log"
if ! grep -q 'duplicate' "$OUT/transmit.log"; then
  echo "FAIL: a re-sent stream was not answered duplicate" >&2
  exit 1
fi
elimination "$OUT/resumed.txt" >"$OUT/resumed_elim.txt"

echo "--- elimination (resumed server vs first server) ---"
diff -u "$OUT/serve_elim.txt" "$OUT/resumed_elim.txt"

echo "PASS: remote and in-process analyses agree"
