#!/bin/sh
# Diagnostics smoke: the three user-facing surfaces of the diagnostics
# engine must actually fire.
#
#   1. A run that blows its work budget dumps the flight recorder
#      (reason plan-timeout) to stderr before failing.
#   2. --trace-chrome writes valid Chrome trace-event JSON with at
#      least one complete event per pipeline stage (Obs.Stage), plus
#      the middleware.execute and execute.stream spans.
#   3. `diagnose --skew-stats` flags the deliberately mis-statted
#      relation as a q-error misestimate finding.
#   4. On an unskewed catalog, greedy's unreduced q1 plan at scale 2
#      has no finding above 50x: the oracle prices key and foreign-key
#      joins by their keys.
#   5. Two reports of one plan list the same OPERATOR TIME rows in the
#      same order once the ms figures are masked.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== flight recorder dumps on plan timeout"
err="$tmp/timeout.err"
dune exec bin/silkroute_cli.exe -- run -q q1 --scale 0.05 --budget 50 \
  --diagnose >/dev/null 2>"$err" || true
for needle in "FLIGHT RECORDER" "plan-timeout" "planner.cache"; do
  if ! grep -q "$needle" "$err"; then
    echo "FAIL: timeout stderr lacks '$needle'" >&2
    exit 1
  fi
done

echo "== chrome trace is valid and covers the pipeline stages"
trace="$tmp/trace.json"
dune exec bin/silkroute_cli.exe -- run -q q1 --scale 0.05 \
  --trace-chrome "$trace" >/dev/null 2>&1
dune exec tools/check_obs.exe -- chrome "$trace" \
  middleware.execute execute.stream

echo "== diagnose flags a mis-statted relation"
report="$tmp/report.txt"
dune exec bin/silkroute_cli.exe -- diagnose -q q1 --scale 0.05 \
  --skew-stats Supplier=64 >"$report" 2>&1
for needle in "PLAN DIAGNOSTICS" "MISESTIMATES" "q-error"; do
  if ! grep -q "$needle" "$report"; then
    echo "FAIL: diagnose report lacks '$needle'" >&2
    exit 1
  fi
done
# the skewed Supplier scan must surface as a finding with q-error 64
if ! grep -E "scan .*64\.00" "$report" >/dev/null; then
  echo "FAIL: diagnose report does not flag the skewed scan at q-error 64" >&2
  exit 1
fi
# an unskewed catalog must not produce the same finding
dune exec bin/silkroute_cli.exe -- diagnose -q q1 --scale 0.05 \
  >"$report" 2>&1
if grep -E "scan .*64\.00" "$report" >/dev/null; then
  echo "FAIL: unskewed diagnose still reports the q-error 64 scan" >&2
  exit 1
fi

echo "== unskewed greedy q1 estimates within 50x"
dune exec bin/silkroute_cli.exe -- diagnose -q q1 --scale 2 \
  --strategy greedy --no-reduce >"$report" 2>&1
grep -q "MISESTIMATES" "$report" || {
  echo "FAIL: diagnose report lacks its MISESTIMATES section" >&2
  exit 1
}
# finding rows sit between the column header and the first blank line;
# their last field is the q-error
worst=$(awk '/^stream +node +op/ { on = 1; next }
  on && NF == 0 { exit }
  on && $NF + 0 > w { w = $NF + 0 }
  END { printf "%.2f", w }' "$report")
if awk -v w="$worst" 'BEGIN { exit !(w > 50) }'; then
  echo "FAIL: greedy q1 at scale 2 has a finding at q-error $worst > 50" >&2
  cat "$report" >&2
  exit 1
fi
echo "worst finding q-error: $worst"

echo "== the OPERATOR TIME table is reproducible"
# the section from its header to the first blank line, every decimal
# figure (a time) masked
op_time() {
  dune exec bin/silkroute_cli.exe -- diagnose -q q1 --scale 0.5 2>&1 |
    awk '/^OPERATOR TIME/ { on = 1 } on && NF == 0 { exit } on' |
    sed -E 's/(^| )[0-9]+\.[0-9]+/\1#/g'
}
op_time >"$tmp/op_time.1"
op_time >"$tmp/op_time.2"
if [ "$(wc -l <"$tmp/op_time.1")" -lt 3 ]; then
  echo "FAIL: diagnose report has no OPERATOR TIME rows" >&2
  exit 1
fi
if ! cmp -s "$tmp/op_time.1" "$tmp/op_time.2"; then
  echo "FAIL: two reports of one plan list different OPERATOR TIME rows" >&2
  diff "$tmp/op_time.1" "$tmp/op_time.2" >&2 || true
  exit 1
fi

echo "== diagnose smoke OK"
