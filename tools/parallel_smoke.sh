#!/bin/sh
# Parallel-execution smoke: drive the CLI's --parallel fan-out and hold
# it to the sequential paths' output and accounting.
#
#   1. Each execution mode (materialized, streaming, resilient with a
#      0.3 fault rate) must produce byte-identical XML *and* identical
#      stderr accounting (streams/tuples/work/transfer; for resilient
#      runs also the full resilience counter line) at --parallel 4 as
#      at --parallel 1.
#   2. A repeated resilient parallel run must reproduce its counters
#      exactly (determinism under domains > 1, not just stability).
#   3. A traced run under --parallel 2 must emit JSONL that passes
#      `check_obs jsonl` — including its span id/parent ordering checks, which
#      multi-domain interleaving would break without the obs locks.
#
# Run from dune (see tools/dune) or by hand:
#   sh tools/parallel_smoke.sh _build/default/bin/silkroute_cli.exe \
#       _build/default/tools/check_obs.exe
set -eu

case $1 in */*) cli=$1 ;; *) cli=./$1 ;; esac
case $2 in */*) check=$2 ;; *) check=./$2 ;; esac

tmp=$(mktemp -d "${TMPDIR:-/tmp}/silkroute_parallel.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

base="run --query q1 --scale 0.1 --strategy fully-partitioned"

run_mode () { # $1 label, $2 extra flags
  label=$1; flags=$2
  # shellcheck disable=SC2086
  "$cli" $base $flags --parallel 1 \
      > "$tmp/$label.seq.xml" 2> "$tmp/$label.seq.err"
  # shellcheck disable=SC2086
  "$cli" $base $flags --parallel 4 \
      > "$tmp/$label.par.xml" 2> "$tmp/$label.par.err"
  cmp -s "$tmp/$label.seq.xml" "$tmp/$label.par.xml" || {
    echo "parallel-smoke FAIL: $label XML differs at --parallel 4" >&2
    exit 1
  }
  # accounting lines (work/tuples/transfer, resilience counters) live in
  # the [...] stderr summaries; they must match to the byte
  grep '^\[' "$tmp/$label.seq.err" > "$tmp/$label.seq.sum"
  grep '^\[' "$tmp/$label.par.err" > "$tmp/$label.par.sum"
  cmp -s "$tmp/$label.seq.sum" "$tmp/$label.par.sum" || {
    echo "parallel-smoke FAIL: $label accounting differs at --parallel 4" >&2
    diff "$tmp/$label.seq.sum" "$tmp/$label.par.sum" >&2 || true
    exit 1
  }
  echo "parallel-smoke: $label ok ($(wc -c < "$tmp/$label.seq.xml") bytes)"
}

run_mode materialized ""
run_mode streaming "--stream"
run_mode resilient "--resilient --fault-rate 0.3 --retries 6"

# determinism: a second parallel resilient run reproduces the counters
"$cli" $base --resilient --fault-rate 0.3 --retries 6 --parallel 4 \
    > /dev/null 2> "$tmp/resilient.par2.err"
grep '^\[' "$tmp/resilient.par2.err" > "$tmp/resilient.par2.sum"
cmp -s "$tmp/resilient.par.sum" "$tmp/resilient.par2.sum" || {
  echo "parallel-smoke FAIL: resilient counters differ between two --parallel 4 runs" >&2
  diff "$tmp/resilient.par.sum" "$tmp/resilient.par2.sum" >&2 || true
  exit 1
}
echo "parallel-smoke: resilient counters reproducible under --parallel 4"

# traced parallel run: spans from 2 domains must still form a valid,
# start-ordered, parent-before-child JSONL trace
"$cli" $base --parallel 2 --trace-json "$tmp/trace.jsonl" > /dev/null 2>&1
"$check" jsonl "$tmp/trace.jsonl"

echo "parallel-smoke OK"
