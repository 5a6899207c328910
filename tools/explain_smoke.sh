#!/bin/sh
# Explain smoke: `run --explain` on q1 and q2 must print, for every
# stream, the logical and physical trees — including at least one hash
# join and at least one predicate the rewrite layer pushed down, and the
# estimated and actual rows of the plan that ran.  Each query runs twice:
# plain, and resilient under injected faults (a retried stream must still
# report the actuals of its winning attempt).  Guards the explain surface
# (and the lowering/rewrite markers it exposes) against silent
# regression.  Then `plan`, `explain` and `run --explain` must name the
# same greedy plan, reduced and with --no-reduce, and `explain` and
# `run --explain` must print the same trees for it.  Last, `run
# --explain` of the fully partitioned q1 must mark a shared subtree.
set -eu

cd "$(dirname "$0")/.."

for q in q1 q2; do
  for flags in "" "--resilient --fault-rate 0.3 --retries 6"; do
    echo "== run --explain --query $q $flags"
    # shellcheck disable=SC2086
    out=$(dune exec bin/silkroute_cli.exe -- run --query "$q" --scale 0.1 \
      --explain $flags 2>&1 >/dev/null)
    for needle in "logical plan:" "physical plan:" "hash-join" \
      "pushdown<-where"; do
      if ! printf '%s' "$out" | grep -q "$needle"; then
        echo "FAIL: --explain $flags output for $q lacks '$needle'" >&2
        exit 1
      fi
    done
    # estimates and actuals are both filled in after a run
    if ! printf '%s' "$out" | grep -Eq "rows est=[0-9]+ act=[0-9]+"; then
      echo "FAIL: --explain $flags output for $q lacks est/act row figures" >&2
      exit 1
    fi
  done
done

# One planner: `plan`, `explain` and `run --explain` name the same
# greedy plan for the reduction they run with (q2 at scale 1 is a point
# where the reduced and the unreduced plans differ).
for flags in "" "--no-reduce"; do
  echo "== plan = explain = run --explain, q2 scale 1 $flags"
  # shellcheck disable=SC2086
  planned=$(dune exec bin/silkroute_cli.exe -- plan -q q2 --scale 1 $flags \
    | sed -n 's/^best plan: /plan: /p')
  # shellcheck disable=SC2086
  explained=$(dune exec bin/silkroute_cli.exe -- explain -q q2 --scale 1 \
    --strategy greedy $flags | grep '^plan: ')
  # shellcheck disable=SC2086
  ran=$(dune exec bin/silkroute_cli.exe -- run -q q2 --scale 1 \
    --strategy greedy --explain $flags 2>&1 >/dev/null | grep '^plan: ')
  if [ -z "$planned" ] || [ "$planned" != "$explained" ] \
    || [ "$planned" != "$ran" ]; then
    echo "FAIL: plans differ $flags:" >&2
    printf '  plan:    %s\n  explain: %s\n  run:     %s\n' \
      "$planned" "$explained" "$ran" >&2
    exit 1
  fi
  echo "$planned"
done

# One tree: `explain` (nothing runs) and `run --explain` (after the run)
# print the same logical and physical plan blocks, stream by stream,
# once the figures suffix `  (rows est=... act=...)` is stripped — both
# take their plans from the backend's one planner.
plan_blocks() {
  awk '/^logical plan:$/ { on = 1 } /^-- stream / { on = 0 } /^\[/ { on = 0 } on' \
    | sed 's/  (rows est=[^)]*)$//'
}
for q in q1 q2; do
  for flags in "" "--no-reduce"; do
    echo "== explain = run --explain plan blocks, $q scale 0.1 greedy $flags"
    # shellcheck disable=SC2086
    explained=$(dune exec bin/silkroute_cli.exe -- explain -q "$q" \
      --scale 0.1 --strategy greedy $flags | plan_blocks)
    # shellcheck disable=SC2086
    ran=$(dune exec bin/silkroute_cli.exe -- run -q "$q" --scale 0.1 \
      --strategy greedy --explain $flags 2>&1 >/dev/null | plan_blocks)
    if [ -z "$explained" ] || [ "$explained" != "$ran" ]; then
      echo "FAIL: explain and run --explain print different trees for $q $flags:" >&2
      printf '%s\n' "$explained" > "${TMPDIR:-/tmp}/explain_smoke.explain"
      printf '%s\n' "$ran" > "${TMPDIR:-/tmp}/explain_smoke.run"
      diff "${TMPDIR:-/tmp}/explain_smoke.explain" \
        "${TMPDIR:-/tmp}/explain_smoke.run" >&2 || true
      exit 1
    fi
    printf '%s\n' "$explained" | wc -l | sed 's/^ */  lines: /'
  done
done

# Sharing: the streams of a fully partitioned q1 join their ancestors'
# tables again; each repeated join subtree runs once per request, and
# `run --explain` marks every replayed one with the stream that ran it.
echo "== run --explain marks shared subtrees, q1 partitioned scale 0.5"
shared=$(dune exec bin/silkroute_cli.exe -- run -q q1 -s partitioned \
  --scale 0.5 --explain 2>&1 >/dev/null \
  | grep -c ' shared from stream [0-9]*)$' || true)
if [ "$shared" -lt 1 ]; then
  echo "FAIL: run --explain of q1 partitioned marks no shared subtree" >&2
  exit 1
fi
echo "  shared: $shared"

echo "== explain smoke OK"
