#!/bin/sh
# Input-error smoke: bad input on the command line is reported as an
# error of the input — "silkroute: <message>" and exit 123 — never as
# cmdliner's "internal error, uncaught exception" (exit 125, a bug).
#
# Run from dune (see tools/dune) or by hand:
#   sh tools/input_error_smoke.sh _build/default/bin/silkroute_cli.exe
set -eu

case $1 in */*) cli=$1 ;; *) cli=./$1 ;; esac

tmp=$(mktemp -d "${TMPDIR:-/tmp}/silkroute_input.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

printf 'not an RXL view {' > "$tmp/bad.rxl"

check () {
  what=$1
  shift
  status=0
  "$cli" "$@" > /dev/null 2> "$tmp/err" || status=$?
  if [ "$status" -ne 123 ]; then
    echo "FAIL: $what exited $status, expected 123" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
  if grep -q "internal error" "$tmp/err"; then
    echo "FAIL: $what reported an internal error" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
  if ! grep -q "^silkroute: " "$tmp/err"; then
    echo "FAIL: $what printed no 'silkroute: <message>' line" >&2
    exit 1
  fi
  echo "ok: $what -> 123: $(head -n 1 "$tmp/err")"
}

check "out-of-range edge mask" run --scale 0.05 --strategy edges:4096
check "non-finite skew factor" run --scale 0.05 --skew-stats Supplier=inf
check "non-RXL view file" run --scale 0.05 --view "$tmp/bad.rxl"

echo "== input error smoke OK"
