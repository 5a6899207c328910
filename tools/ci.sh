#!/bin/sh
# Local CI: build, test, and (when ocamlformat is available) check
# formatting.  The fmt check is gated because the toolchain image does
# not ship ocamlformat; installing it locally enables the check with no
# other change.
set -eu

cd "$(dirname "$0")/.."

echo "== build profile (libraries inline across modules, dev warnings kept)"
# dune-workspace selects the release profile: the dev profile compiles
# every library with -opaque, which stops the per-row helpers (Value,
# Tuple, Batch) from inlining into the executor's loops.  The root dune
# file keeps the dev profile's warnings-as-errors.
rules=$(dune rules _build/default/lib/relational/.relational.objs/native/relational__Executor.cmx)
case $rules in
  *ocamlopt*) ;;
  *) echo "build: no native compile rule for relational__Executor.cmx"; exit 1 ;;
esac
case $rules in
  *-opaque*) echo "build: library modules are compiled with -opaque (see dune-workspace)"; exit 1 ;;
esac
if ! dune printenv . | grep -qF '@1..3@5..28@30..39@43@46..47@49..57@61..62'; then
  echo "build: the dev warnings-as-errors are missing from the flags (see the root dune file)"
  exit 1
fi

echo "== layering (the cost oracle is genPlan's alone; text becomes a plan in Backend.plan; lib/server plans through Middleware)"
# One pricing route: Cost.ask (an AST planned only to be priced) serves
# genPlan; everything else prices the plans the backend built.
ask=$(grep -rln 'Cost\.ask' lib | grep -vx -e lib/silkroute/planner.ml -e lib/relational/cost.ml || true)
if [ -n "$ask" ]; then
  echo "layering: Cost.ask outside planner.ml and cost.ml: $ask"
  exit 1
fi
# One planning route: Backend.plan turns SQL text into the plan that
# runs; cost.ml plans genPlan's ASTs only to price them.
plan_of=$(grep -rnE '\.plan_of([^A-Za-z0-9_]|$)' lib --include='*.ml' \
  | grep -v -e '^lib/relational/backend\.ml:' -e '^lib/relational/cost\.ml:' || true)
if [ -n "$plan_of" ]; then
  echo "layering: Physical.plan_of outside backend.ml and cost.ml:"
  echo "$plan_of"
  exit 1
fi
server=$(grep -nE '(^|[^A-Za-z0-9_])(Cost|Sql_gen|Planner|Physical|Backend)\.' lib/server/*.ml || true)
if [ -n "$server" ]; then
  echo "layering: lib/server names the planner's modules (go through Silkroute.Middleware):"
  echo "$server"
  exit 1
fi

echo "== dead exports (every val in lib/**/*.mli is named in some other source file)"
# A bare-name check: a val whose name appears in no .ml/.mli under the
# program's, the benchmarks' or the tests' directories other than its
# own module's two files has no caller, and is deleted or unexported.
sources=$(find lib bin bench tools examples perfbench test -name '_build' -prune \
  -o \( -name '*.ml' -o -name '*.mli' \) -print | sort)
dead=""
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%i}
  others=$(echo "$sources" | grep -vx -e "$mli" -e "$ml")
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\) *:.*/\1/p" "$mli"); do
    # shellcheck disable=SC2086
    if ! grep -qw -- "$name" $others; then
      dead="$dead $mli:$name"
    fi
  done
done
if [ -n "$dead" ]; then
  echo "dead exports (named nowhere outside their own module):"
  for d in $dead; do echo "  $d"; done
  exit 1
fi

echo "== dune build @check"
dune build @check

echo "== dune build @all"
dune build @all

echo "== dune runtest (unit suites, the trace check, and the parallel, serve and telemetry smokes)"
dune runtest

echo "== memory smoke (streaming path stays bounded, no spool-file leaks)"
dune exec tools/mem_smoke.exe

echo "== explain smoke (logical + physical trees on q1/q2)"
sh tools/explain_smoke.sh

echo "== diagnose smoke (flight recorder, chrome trace, anomaly detector)"
sh tools/diagnose_smoke.sh

echo "== bench baseline gate (work within ±5% of committed BENCH_silkroute.json)"
dune exec bench/main.exe -- --check-baseline

echo "== committed lattice wall-clock report (stamp, one record per lattice point, non-negative figures)"
dune exec tools/check_obs.exe -- lattice BENCH_lattice_wallclock.jsonl

echo "== wall-clock benchmark self-tests (replay harness builds, counts repeat)"
python3 perfbench/test_perfbench.py

echo "== scaling experiment (fan-out parity + measured wall-time curve)"
scaling_out=$(dune exec bench/main.exe -- --experiment scaling)
echo "$scaling_out"
if echo "$scaling_out" | grep -q 'NO!'; then
  echo "scaling: parity violation (see NO! rows above)"
  exit 1
fi
if ! echo "$scaling_out" | grep -q ' yes$'; then
  echo "scaling: no parity rows found"
  exit 1
fi

echo "== serving experiment (measured cache on/off qps + percentiles, warm strictly less work)"
serving_out=$(dune exec bench/main.exe -- --experiment serving)
echo "$serving_out"
if echo "$serving_out" | grep -q 'NO!'; then
  echo "serving: invariant violation (see NO! rows above)"
  exit 1
fi
if ! echo "$serving_out" | grep -q ' yes$'; then
  echo "serving: no invariant rows found"
  exit 1
fi

echo "== resilience experiment (faulty backend: output identical at every fault rate)"
resilience_out=$(dune exec bench/main.exe -- --experiment resilience)
echo "$resilience_out"
if echo "$resilience_out" | grep -q 'NO!'; then
  echo "resilience: output differs under faults (see NO! rows above)"
  exit 1
fi
if ! echo "$resilience_out" | grep -q ' yes$'; then
  echo "resilience: no fault-rate rows found"
  exit 1
fi

echo "== micro benchmarks (every case runs and yields an estimate; ns figures not gated)"
micro_out=$(dune exec bench/main.exe -- --experiment micro)
echo "$micro_out"
if echo "$micro_out" | grep -q 'n/a'; then
  echo "micro: a case produced no estimate (see n/a rows above)"
  exit 1
fi
if ! echo "$micro_out" | grep -q 'ns/run$'; then
  echo "micro: no benchmark rows found"
  exit 1
fi

echo "== baseline smoke (perturbed baseline must fail the gate)"
sh tools/baseline_smoke.sh

if command -v ocamlformat > /dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed)"
fi

echo "== ci OK"
