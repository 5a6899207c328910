#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly, one seed per run, and
prints per (metric, workload) the median, the quartiles and the spread
(Q3 - Q1) / median beside the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--sets 1|2] [--workloads a,b]

Each set makes RUNS runs per workload, with seeds SEED0, SEED0 + 1, ...;
the second set starts at SEED0 + 100.

A spread at or above a third of the bound is flagged UNSTEADY; with
--sets 2 the second set's median is also compared with the first's and a
drift beyond the bound is flagged DRIFT.  `setup_s` is exempt from the
spread rule, as the benchmark's acceptance rule exempts it, but not from
the drift rule.  A run that fails, or that does not report every
end-to-end metric of BENCHMARK.json, stops the report.  Exit code 1 when
anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEED0 = 1000


def one_run(workload, seed, seconds):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=900)
    lines = p.stdout.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: run failed with exit code %d"
                         % (workload, seed, p.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: %d of %d operations failed"
                         % (workload, seed, result["failed"], result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    lines = ["%-20s %-28s %12s %12s %12s %8s %6s %9s  %s"
             % ("workload", "metric", "median", "q1", "q3", "spread", "bound",
                "spr/bnd", "flags")]
    flagged = 0
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = [one_run(w, SEED0 + 100 * s + i, spec["run_seconds"])
                    for i in range(RUNS)]
            sets.append(runs)
            print("%s: set %d done" % (w, s + 1), file=sys.stderr, flush=True)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            flags = []
            q1, med, q3, spr = spread([r[name] for r in sets[0]])
            if name != "setup_s" and spr >= bound / 3:
                flags.append("UNSTEADY")
            if args.sets == 2:
                med2 = statistics.median([r[name] for r in sets[1]])
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                flags.append("second median %+.1f%%" % (100 * -worse))
                if worse > bound:
                    flags.append("DRIFT")
            flagged += any(f in ("UNSTEADY", "DRIFT") for f in flags)
            lines.append("%-20s %-28s %12.4f %12.4f %12.4f %7.1f%% %6.2f %9.2f  %s"
                         % (w, name, med, q1, q3, 100 * spr, bound, spr / bound,
                            " ".join(flags)))
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
