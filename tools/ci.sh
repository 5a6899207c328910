#!/bin/sh
# Local CI: build, test, and (when ocamlformat is available) check
# formatting.  The fmt check is gated because the toolchain image does
# not ship ocamlformat; installing it locally enables the check with no
# other change.
set -eu

cd "$(dirname "$0")/.."

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
