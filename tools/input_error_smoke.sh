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

# check_named WORD WHAT ARGS...: as check, and the message names WORD.
check_named () {
  word=$1
  shift
  check "$@"
  if ! grep -q "$word" "$tmp/err"; then
    echo "FAIL: $1's message does not name $word" >&2
    exit 1
  fi
}

check "out-of-range edge mask" run --scale 0.05 --strategy edges:4096
check "non-finite skew factor" run --scale 0.05 --skew-stats Supplier=inf
check "non-RXL view file" run --scale 0.05 --view "$tmp/bad.rxl"

# A view whose part block correlates $p with itself: the unified and
# greedy plans cannot carry p.partkey to the order block, which is a
# property of the view, not a crash.
cat > "$tmp/uncorrelated.rxl" <<'RXL'
view suppliers
{
  from Supplier $s
  construct
    <supplier>
      {
        from PartSupp $ps, Part $p
        where $s.suppkey = $ps.suppkey, $p.partkey = $p.partkey
        construct
          <part>
            <name>$p.name</name>
            {
              from LineItem $l, Orders $o
              where $ps.partkey = $l.partkey,
                    $ps.suppkey = $l.suppkey,
                    $l.orderkey = $o.orderkey
              construct
                <order>
                  <orderkey>$o.orderkey</orderkey>
                  {
                    from Customer $c
                    where $o.custkey = $c.custkey
                    construct <customer>$c.name</customer>
                  }
                </order>
            }
          </part>
      }
    </supplier>
}
RXL
check_named "unsupported view" "view the unified plan cannot correlate" run \
  --view "$tmp/uncorrelated.rxl" --scale 0.01 --strategy unified --no-reduce
check_named "unsupported view" "view the greedy plan cannot correlate" run \
  --view "$tmp/uncorrelated.rxl" --scale 0.01 --strategy greedy --no-reduce

# Counts below their range are rejected where they are owned.
check_named budget "negative budget" run --scale 0.05 --budget=-5
check_named retries "negative retries" run --scale 0.05 --retries=-1
check_named requests "negative request count" workload --scale 0.05 \
  --no-verify --requests=-1
check_named clients "zero clients" workload --scale 0.05 --no-verify --clients=0
check_named result_capacity "negative result cache" serve --scale 0.05 \
  --socket "$tmp/cache.sock" --result-cache=-1

# Outcomes the flags asked for: a budget that no plan fits (the paper's
# per-query timeout) and a backend that always fails.  Each message
# names what gave up.
check_named "root" "budget below every plan" run -q q1 --scale 0.2 \
  --budget 20000
check_named "root" "diagnose, budget below every plan" diagnose -q q1 \
  --scale 0.2 --budget 20000
check_named "transient" "certain faults" run -q q1 --scale 0.1 --resilient \
  --fault-rate 1.0

# A socket path is input too: serve replaces only a stale socket, and
# nothing listening is an error of the path, not a crash or a zero tally.
printf 'precious data' > "$tmp/occupied"
check "serve on a regular file" serve --scale 0.05 --socket "$tmp/occupied"
if [ "$(cat "$tmp/occupied")" != "precious data" ]; then
  echo "FAIL: serve replaced the regular file at its --socket path" >&2
  exit 1
fi
check "serve in a missing directory" serve --scale 0.05 \
  --socket "$tmp/missing/s.sock"
check "monitor with no server" monitor --once --socket "$tmp/none.sock"
check "workload with no server" workload --scale 0.05 --no-verify \
  --socket "$tmp/none.sock"

echo "== input error smoke OK"
