#!/bin/sh
# Query-server smoke: start `serve` on a Unix socket, replay the
# deterministic multi-client workload over the wire twice, and hold the
# server to its contract:
#
#   1. Every response must be byte-identical to the direct pipeline —
#      the workload driver computes its references through the plain
#      middleware path and exits non-zero on any mismatch, and we also
#      require its "identity: mismatches=0" line explicitly.
#   2. The second pass must be served from the caches: statement, plan
#      and result hit counters all strictly positive.
#   3. The result tier holds at most one document per view (three).
#   4. The workload's invalidations skew no table, so they flush the
#      result tier and never the plan tier.
#   5. The Shutdown request must stop the server and remove the socket.
#
# Run from dune (see tools/dune) or by hand:
#   sh tools/serve_smoke.sh _build/default/bin/silkroute_cli.exe
set -eu

case $1 in */*) cli=$1 ;; *) cli=./$1 ;; esac

tmp=$(mktemp -d "${TMPDIR:-/tmp}/silkroute_serve.XXXXXX")
sock="$tmp/server.sock"
server_pid=""
cleanup () {
  [ -n "$server_pid" ] && kill "$server_pid" 2> /dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

scale="--scale 0.1"

# shellcheck disable=SC2086
"$cli" serve $scale --socket "$sock" --parallel 2 \
    > "$tmp/serve.out" 2> "$tmp/serve.err" &
server_pid=$!

# the server generates its database before binding; wait for the socket
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 600 ]; then
    echo "serve-smoke FAIL: socket never appeared" >&2
    cat "$tmp/serve.err" >&2 || true
    exit 1
  fi
  kill -0 "$server_pid" 2> /dev/null || {
    echo "serve-smoke FAIL: server exited before binding" >&2
    cat "$tmp/serve.err" >&2 || true
    exit 1
  }
  sleep 0.1
done

run_pass () { # $1 label, $2 extra workload flags
  label=$1; flags=$2
  # shellcheck disable=SC2086
  "$cli" workload $scale --socket "$sock" --server-stats $flags \
      > "$tmp/$label.out" 2> "$tmp/$label.err" || {
    echo "serve-smoke FAIL: workload pass '$label' failed (mismatch or error)" >&2
    cat "$tmp/$label.out" >&2 || true
    cat "$tmp/$label.err" >&2 || true
    exit 1
  }
  grep -q '^identity: mismatches=0' "$tmp/$label.out" || {
    echo "serve-smoke FAIL: pass '$label' responses differ from the direct pipeline" >&2
    cat "$tmp/$label.out" >&2
    exit 1
  }
  grep -q '^errors: none' "$tmp/$label.out" || {
    echo "serve-smoke FAIL: pass '$label' reported request errors" >&2
    cat "$tmp/$label.out" >&2
    exit 1
  }
  echo "serve-smoke: pass '$label' byte-identical ($(grep '^workload:' "$tmp/$label.out"))"
}

run_pass cold ""
run_pass warm "--shutdown"

# warm pass must be served from the caches: every tier's hit counter > 0
hits=$(grep '^hits:' "$tmp/warm.out")
for tier in statement plan result; do
  n=$(echo "$hits" | sed "s/.*$tier=\([0-9]*\).*/\1/")
  if [ -z "$n" ] || [ "$n" -eq 0 ]; then
    echo "serve-smoke FAIL: warm pass had no $tier-cache hits ($hits)" >&2
    exit 1
  fi
done
echo "serve-smoke: warm pass hit every cache tier ($hits)"

# the workload's three views read no nullable column and the generated
# data meets its constraints, so every plan of a view publishes one
# document: the result tier holds at most one per view
result=$(grep '^result:' "$tmp/warm.err" || true)
entries=$(echo "$result" | sed -n 's/.* entries=\([0-9]*\).*/\1/p')
if [ -z "$entries" ] || [ "$entries" -gt 3 ]; then
  echo "serve-smoke FAIL: result tier holds more than one document per view ($result)" >&2
  exit 1
fi
echo "serve-smoke: result tier holds one document per view ($result)"

# the workload's invalidations skew no table: each flushes the result
# tier, and the plan tier, which depends on the catalog alone, survives
plan=$(grep '^plan:' "$tmp/warm.err" || true)
plan_flushes=$(echo "$plan" | sed -n 's/.* flushes=\([0-9]*\).*/\1/p')
result_flushes=$(echo "$result" | sed -n 's/.* flushes=\([0-9]*\).*/\1/p')
if [ "$plan_flushes" != 0 ] || [ -z "$result_flushes" ] || [ "$result_flushes" -eq 0 ]; then
  echo "serve-smoke FAIL: skew-less invalidations must flush results and keep plans ($plan / $result)" >&2
  exit 1
fi
echo "serve-smoke: invalidations flushed the result tier $result_flushes times, the plan tier never"

# the --shutdown request must stop the server and remove the socket
i=0
while kill -0 "$server_pid" 2> /dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve-smoke FAIL: server still running after Shutdown" >&2
    exit 1
  fi
  sleep 0.1
done
server_pid=""
if [ -S "$sock" ]; then
  echo "serve-smoke FAIL: socket file not removed on shutdown" >&2
  exit 1
fi
echo "serve-smoke: shutdown clean, socket removed"

echo "serve-smoke OK"
