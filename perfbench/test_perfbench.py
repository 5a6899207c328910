#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from anywhere inside a checkout; builds the helper with dune first.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def helper(*args):
    return subprocess.run([os.path.join(ROOT, run.HELPER)] + list(args), cwd=ROOT,
                          check=True, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL).stdout.decode()


def work_dir(prefix):
    os.makedirs(os.path.join(ROOT, run.WORK), exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=os.path.join(ROOT, run.WORK))


def setUpModule():
    os.chdir(ROOT)
    run.build()


class Percentile(unittest.TestCase):
    def test_known_arrays(self):
        hundred = list(range(1, 101))
        self.assertEqual(run.nearest_rank(hundred, 0.50), 50)
        self.assertEqual(run.nearest_rank(hundred, 0.90), 90)
        self.assertEqual(run.nearest_rank(list(range(1, 22)), 0.50), 11)
        two_values = [5.0] * 50 + [7.0] * 50
        self.assertEqual(run.nearest_rank(two_values, 0.50), 5.0)
        self.assertEqual(run.nearest_rank(two_values, 0.90), 7.0)

    def test_needs_ten_samples_beyond(self):
        # 99 samples put the p90 at rank 90 with only 9 beyond it
        with self.assertRaises(run.BenchError):
            run.nearest_rank(list(range(1, 100)), 0.90)
        with self.assertRaises(run.BenchError):
            run.nearest_rank(list(range(1, 20)), 0.50)
        with self.assertRaises(run.BenchError):
            run.nearest_rank([], 0.50)


class Scripts(unittest.TestCase):
    def script(self, workload, seed):
        return helper("script", "--workload", workload, "--seed", str(seed), "--seconds", "15")

    def test_pure_function_of_workload_and_seed(self):
        for workload in ("export-lattice", "serve-churn"):
            first = self.script(workload, 7)
            self.assertEqual(first, self.script(workload, 7), workload)
            self.assertNotEqual(first, self.script(workload, 8), workload)
            self.assertGreater(len(first.splitlines()), 100)

    def test_churn_seed_only_reorders(self):
        # between two invalidations every seed sends the same queries, so
        # the result tier's hit share is the server's, not the seed's
        def stretches(seed):
            out, cur = [], []
            for line in self.script("serve-churn", seed).splitlines():
                if line == "I":
                    out.append(sorted(cur))
                    cur = []
                else:
                    cur.append(line)
            return out + [sorted(cur)]
        first = stretches(7)
        self.assertGreater(len(first), 2)
        self.assertEqual(first, stretches(8))

    def test_balanced_mix(self):
        # every block of seven, counted from the first warm-up request,
        # holds all six (view, reduce) pairs
        lines = [l.replace("warmup ", "")
                 for l in self.script("export-greedy-large", 3).splitlines()]
        for i in range(0, len(lines) - 6, 7):
            pairs = {tuple(l.split()[1:3]) for l in lines[i:i + 7]}
            self.assertEqual(len(pairs), 6)


class Replay(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dirs = {}
        for workload in ("export-lattice", "serve-churn"):
            d = work_dir("test-")
            helper("gen", "--workload", workload, "--seed", "5", "--seconds", "1", "--dir", d)
            cls.dirs[workload] = d

    @classmethod
    def tearDownClass(cls):
        for d in cls.dirs.values():
            shutil.rmtree(d, ignore_errors=True)

    def replay(self, workload):
        out = helper("replay", "--workload", workload, "--dir", self.dirs[workload])
        return json.loads(out.strip().splitlines()[-1])

    def spans(self, workload):
        rows = []
        with open(os.path.join(self.dirs[workload], "spans.tsv")) as f:
            for line in f:
                req, layer, shadow, t0, t1 = line.split("\t")
                rows.append((int(req), layer, shadow == "1", int(t0), int(t1)))
        return rows

    def test_layers_fit_inside_each_request(self):
        for workload in self.dirs:
            result = self.replay(workload)
            self.assertEqual(result["failed"], 0)
            walls, busy = {}, {}
            for req, layer, shadow, t0, t1 in self.spans(workload):
                if layer == "request":
                    walls[req] = (t0, t1)
                elif not shadow:
                    busy.setdefault(req, []).append((t0, t1))
            self.assertEqual(len(walls), result["attempted"])
            for req, (w0, w1) in walls.items():
                inner = busy.get(req, [])
                self.assertTrue(inner, "request %d has no layer spans" % req)
                for t0, t1 in inner:
                    self.assertTrue(w0 <= t0 <= t1 <= w1, "request %d" % req)
                self.assertLessEqual(sum(t1 - t0 for t0, t1 in inner), w1 - w0)
            self.assertGreaterEqual(result["metrics"]["outside.busy_ms"]["value"], 0.0)

    def test_counts_repeat_exactly(self):
        counts = ["executor.work_units", "executor.rows_scanned", "tagger.bytes_out",
                  "planner.oracle_requests", "planner.cache_hits", "sql_gen.streams",
                  "service.result_hit_ratio", "service.plan_hit_ratio",
                  "service.result_evictions", "protocol.bytes"]
        first = self.replay("serve-churn")["metrics"]
        second = self.replay("serve-churn")["metrics"]
        for name in counts:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        self.assertGreater(first["planner.oracle_requests"]["value"], 0)
        self.assertGreater(first["service.result_evictions"]["value"], 0)


class Contract(unittest.TestCase):
    def test_fails_without_the_program(self):
        # a directory holding only BENCHMARK.json and the benchmark's files
        d = work_dir("bare-")
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                "serve-hot", "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=d, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, b"")
        finally:
            shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
