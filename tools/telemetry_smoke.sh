#!/bin/sh
# Telemetry smoke: start `serve` with the whole telemetry surface on —
# tracing, wire metrics, slow-query log, SLO monitor — drive a real
# workload over the socket, and check the story end to end:
#
#   1. `monitor --raw` (the M request) must return a parseable
#      exposition before and after the workload, with monotone
#      counters, ordered latency quantiles and sane cache ratios
#      (`tools/check_obs.ml telemetry` does the parsing).
#   2. `monitor --once` must render its human frame from the same
#      scrape, plus the H health line.
#   3. With a 0.001ms threshold every query is slow: the slow log must
#      hold valid JSONL records carrying trace ids and one entry per
#      stage — sampled out or not (the server samples 1 in 2) — that
#      match the advertised written counter.
#   4. A second server with an absurd 0.001ms p99 target must breach:
#      the exposition's slo burn series and the H health line both
#      report it (the slo.burn event emission itself is pinned by the
#      unit suite).
#
# Run from dune (see tools/dune) or by hand:
#   sh tools/telemetry_smoke.sh _build/default/bin/silkroute_cli.exe \
#       _build/default/tools/check_obs.exe
set -eu

case $1 in */*) cli=$1 ;; *) cli=./$1 ;; esac
case $2 in */*) checker=$2 ;; *) checker=./$2 ;; esac

tmp=$(mktemp -d "${TMPDIR:-/tmp}/silkroute_telemetry.XXXXXX")
sock="$tmp/server.sock"
slowlog="$tmp/slow.jsonl"
threshold_ms=0.001
server_pid=""
cleanup () {
  [ -n "$server_pid" ] && kill "$server_pid" 2> /dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

scale="--scale 0.1"

# $1 socket, $2 the server's stderr, $3 phase label: wait until the
# server (which generates its database first) binds its socket
wait_for_socket () {
  i=0
  while [ ! -S "$1" ]; do
    i=$((i + 1))
    if [ "$i" -gt 600 ] || ! kill -0 "$server_pid" 2> /dev/null; then
      echo "telemetry-smoke FAIL: $3 server never bound its socket" >&2
      cat "$2" >&2 || true
      exit 1
    fi
    sleep 0.1
  done
}

# $1 phase label: wait until a Shutdown request stopped the server
wait_for_exit () {
  i=0
  while kill -0 "$server_pid" 2> /dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "telemetry-smoke FAIL: $1 server still running after Shutdown" >&2
      exit 1
    fi
    sleep 0.1
  done
  server_pid=""
}

# shellcheck disable=SC2086
"$cli" serve $scale --socket "$sock" --parallel 2 \
    --telemetry --trace-sample 2 \
    --slow-ms "$threshold_ms" --slow-log "$slowlog" \
    --slo-target-ms 250 \
    > "$tmp/serve.out" 2> "$tmp/serve.err" &
server_pid=$!
wait_for_socket "$sock" "$tmp/serve.err" main

"$cli" monitor --socket "$sock" --raw > "$tmp/scrape1.prom" 2> "$tmp/monitor.err" || {
  echo "telemetry-smoke FAIL: first metrics scrape failed" >&2
  cat "$tmp/monitor.err" >&2 || true
  exit 1
}

# shellcheck disable=SC2086
"$cli" workload $scale --socket "$sock" > "$tmp/workload.out" 2>&1 || {
  echo "telemetry-smoke FAIL: workload pass failed" >&2
  cat "$tmp/workload.out" >&2 || true
  exit 1
}
grep -q '^identity: mismatches=0' "$tmp/workload.out" || {
  echo "telemetry-smoke FAIL: telemetry changed the served bytes" >&2
  cat "$tmp/workload.out" >&2
  exit 1
}
echo "telemetry-smoke: workload byte-identical with full telemetry on"

"$cli" monitor --socket "$sock" --raw > "$tmp/scrape2.prom" 2>> "$tmp/monitor.err" || {
  echo "telemetry-smoke FAIL: second metrics scrape failed" >&2
  cat "$tmp/monitor.err" >&2 || true
  exit 1
}

"$cli" monitor --socket "$sock" --once > "$tmp/frame.out" 2>> "$tmp/monitor.err" || {
  echo "telemetry-smoke FAIL: monitor --once failed" >&2
  cat "$tmp/monitor.err" >&2 || true
  exit 1
}
for prefix in 'requests:' 'cache:' 'latency:' 'slo:' 'backlog:' 'health:'; do
  grep -q "^$prefix" "$tmp/frame.out" || {
    echo "telemetry-smoke FAIL: monitor frame is missing its '$prefix' line" >&2
    cat "$tmp/frame.out" >&2
    exit 1
  }
done
grep -q 'status=ok' "$tmp/frame.out" || {
  echo "telemetry-smoke FAIL: health line does not say status=ok" >&2
  cat "$tmp/frame.out" >&2
  exit 1
}
echo "telemetry-smoke: monitor frame + health line render"

# give the slow-log writer thread a moment to drain the queue
sleep 0.3

"$checker" telemetry "$tmp/scrape1.prom" "$tmp/scrape2.prom" "$slowlog" "$threshold_ms" || {
  echo "telemetry-smoke FAIL: exposition/slow-log validation failed" >&2
  exit 1
}

# shellcheck disable=SC2086
"$cli" workload $scale --socket "$sock" --shutdown > "$tmp/shutdown.out" 2>&1 || {
  echo "telemetry-smoke FAIL: shutdown pass failed" >&2
  cat "$tmp/shutdown.out" >&2 || true
  exit 1
}
wait_for_exit main

# --- induced SLO burn: a target no real query can meet ---------------------
sock2="$tmp/burn.sock"
# shellcheck disable=SC2086
"$cli" serve $scale --socket "$sock2" --telemetry --slo-target-ms 0.001 \
    > "$tmp/burn_serve.out" 2> "$tmp/burn_serve.err" &
server_pid=$!
wait_for_socket "$sock2" "$tmp/burn_serve.err" burn-phase
# shellcheck disable=SC2086
"$cli" workload $scale --socket "$sock2" > "$tmp/burn_workload.out" 2>&1 || {
  echo "telemetry-smoke FAIL: burn-phase workload failed" >&2
  cat "$tmp/burn_workload.out" >&2 || true
  exit 1
}
"$cli" monitor --socket "$sock2" --raw > "$tmp/burn.prom" 2>> "$tmp/monitor.err"
grep -q '^silkroute_slo_breached 1$' "$tmp/burn.prom" || {
  echo "telemetry-smoke FAIL: impossible SLO target did not breach" >&2
  grep '^silkroute_slo' "$tmp/burn.prom" >&2 || true
  exit 1
}
"$cli" monitor --socket "$sock2" --once > "$tmp/burn_frame.out" 2>> "$tmp/monitor.err"
grep -q 'slo_breached=true' "$tmp/burn_frame.out" || {
  echo "telemetry-smoke FAIL: health line does not report the breach" >&2
  cat "$tmp/burn_frame.out" >&2
  exit 1
}
echo "telemetry-smoke: induced SLO burn visible in exposition + health"
# shellcheck disable=SC2086
"$cli" workload $scale --socket "$sock2" --shutdown > /dev/null 2>&1 || true
wait_for_exit burn-phase

echo "telemetry-smoke OK"
