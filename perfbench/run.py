#!/usr/bin/env python3
"""Wall-clock benchmark of SilkRoute: fixed-script workloads against a real
`silkroute serve`, plus a traced in-process replay for per-layer numbers.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run:

1. builds `bin/silkroute_cli.exe` and `perfbench/silkbench.exe` with dune;
2. writes the TPC-H inputs for the seed as --schema/--data files, the
   request script and the reference documents (`silkbench gen`), outside
   any timed window;
3. with --trace 0: launches the unmodified `silkroute serve --parallel 1`
   on those files SETUPS times, timing launch -> ready -> warmed
   (`setup_s`, the median).  The last `passes` servers (see
   perfbench/workloads.ml) each get the timed script from this single
   client over the Unix socket, one request in flight (a closed loop);
   the latency percentiles pool all passes, the throughput is the median
   pass's.  Every reply is checked byte for byte against the reference,
   the client's failure and result-hit counts are checked against the
   server's own `S` counters, and the server's VmHWM is read just before
   shutdown;
4. with --trace 1: runs `silkbench replay`, which replays the same script
   in process and times each layer's public functions.

All times are normalized by a reference loop run beside them on the same
CPU (see REF_NS), so that interference from other tenants of the machine
does not read as a change of the program.  Client and server are pinned
to one CPU.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A human summary goes to
standard error.  The exit code is non-zero on any failed or mismatched
reply and on any error.
"""

import argparse
import gc
import json
import math
import os
import random
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLI = os.path.join("_build", "default", "bin", "silkroute_cli.exe")
HELPER = os.path.join("_build", "default", "perfbench", "silkbench.exe")
WORK = ".perfbench"

# Server launches per run; setup_s is their median.
SETUPS = 5
# Times are normalized to a machine on which the reference loop takes
# exactly REF_NS.  Other tenants of a virtual machine slow it by up to
# 1.7x for seconds to minutes at a time, compute-bound work less than
# memory-bound work.  The loop mixes both, like the server; it runs on the
# same CPU every REF_EVERY_NS of requests and slows with the server, but
# by more: over the passes of all four workloads, request times grew
# about as the REF_EXPONENT power of the loop's time, which is the
# normalization that spread least from run to run.
REF_NS = 1.5e6
REF_EXPONENT = 0.8
REF_EVERY_NS = 20e6
REF_ITERS = 12000
REF_TABLE_SIZE = 2_000_000
REF_PROBES = 2000
REF_INSERTS = 700
# Every percentile reported needs this many samples beyond it.
MIN_BEYOND = 10
# Per-process deadline, well inside the benchmark's 180 s.
STEP_TIMEOUT = 150
BUILD_TIMEOUT = 850


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics --------------------------------------------------------------


def nearest_rank(sorted_values, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    q of the samples at or below it.  Raises unless at least MIN_BEYOND
    samples lie beyond the chosen one, so a percentile is never reported
    from a run too short to support it."""
    n = len(sorted_values)
    if n == 0:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise BenchError(
            "p%g needs %d samples beyond it, %d samples give %d"
            % (q * 100, MIN_BEYOND, n, beyond)
        )
    return sorted_values[rank - 1]


# --- wire protocol (length-prefixed frames, see lib/server/protocol.mli) ----


def encode_frame(fields):
    out = [struct.pack(">I", len(fields))]
    for f in fields:
        out.append(struct.pack(">I", len(f)))
        out.append(f)
    return b"".join(out)


def read_exact(rf, n):
    data = rf.read(n)
    if data is None or len(data) != n:
        raise BenchError("server closed the connection mid-frame")
    return data


def read_frame(rf):
    (count,) = struct.unpack(">I", read_exact(rf, 4))
    fields = []
    for _ in range(count):
        (length,) = struct.unpack(">I", read_exact(rf, 4))
        fields.append(read_exact(rf, length))
    return fields


class Connection:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        # no reply takes a minute; a hung server must not hang the run
        self.sock.settimeout(60)
        self.sock.connect(path)
        self.rf = self.sock.makefile("rb", buffering=1 << 20)

    def call(self, frame):
        self.sock.sendall(frame)
        return read_frame(self.rf)

    def close(self):
        self.rf.close()
        self.sock.close()


# --- inputs -----------------------------------------------------------------


def load_script(path, views):
    reqs = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if parts[0] == "Q":
                view, reduce, strategy = int(parts[1]), parts[2], parts[3]
                frame = encode_frame([b"Q", views[view], strategy.encode(), reduce.encode()])
                reqs.append(("Q", view, frame))
            else:
                reqs.append(("I", None, encode_frame([b"I", b"", b"0x1p+0"])))
    return reqs


class Inputs:
    def __init__(self, run_dir):
        self.dir = run_dir
        with open(os.path.join(run_dir, "meta.json")) as f:
            self.meta = json.load(f)
        self.views, self.refs = [], []
        i = 0
        while os.path.exists(os.path.join(run_dir, "view%d.rxl" % i)):
            with open(os.path.join(run_dir, "view%d.rxl" % i), "rb") as f:
                self.views.append(f.read())
            with open(os.path.join(run_dir, "ref%d.xml" % i), "rb") as f:
                self.refs.append(f.read())
            i += 1
        self.warmup = load_script(os.path.join(run_dir, "warmup.txt"), self.views)
        self.script = load_script(os.path.join(run_dir, "script.txt"), self.views)


# --- replies ----------------------------------------------------------------


class Tally:
    """Failed operations against attempts: mismatched XML, Failed and
    Rejected replies, and anything else unexpected."""

    def __init__(self):
        self.failed = 0
        self.rejected = 0
        self.server_failed = 0
        self.mismatches = 0
        self.result_hits = 0
        self.queries = 0
        self.first_error = None

    def error(self, msg):
        self.failed += 1
        if self.first_error is None:
            self.first_error = msg

    def check(self, inputs, kind, view, fields, where):
        tag = fields[0] if fields else b""
        if kind == "Q":
            self.queries += 1
            if tag == b"R" and len(fields) == 7:
                if fields[1] != inputs.refs[view]:
                    self.mismatches += 1
                    self.error("%s: XML of view %d differs from the reference" % (where, view))
                elif fields[4] == b"1":
                    self.result_hits += 1
                return
            if tag == b"r":
                self.rejected += 1
            elif tag == b"f":
                self.server_failed += 1
            self.error("%s: %r reply %r" % (where, tag, b" ".join(fields[1:])[:200]))
        elif tag != b"i":
            self.error("%s: invalidate answered with %r" % (where, tag))


# --- server lifecycle --------------------------------------------------------


class Server:
    def __init__(self, inputs, sock_path):
        self.path = sock_path
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        self.stderr = open(os.path.join(inputs.dir, "server.log"), "ab")
        args = [
            CLI, "serve",
            "--schema", os.path.join(inputs.dir, "schema.sd"),
            "--data", os.path.join(inputs.dir, "data"),
            "--socket", sock_path,
        ] + inputs.meta["server_args"]
        self.proc = subprocess.Popen(args, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self.stderr)
        self.conn = None

    def wait_ready(self, deadline):
        """Connect as soon as the socket accepts and the server answers H."""
        while True:
            if self.proc.poll() is not None:
                raise BenchError("server exited with code %d during start-up"
                                 % self.proc.returncode)
            if time.monotonic() > deadline:
                raise BenchError("server not ready before the deadline")
            try:
                self.conn = Connection(self.path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.0005)
        reply = self.conn.call(encode_frame([b"H"]))
        if reply[0] != b"i":
            raise BenchError("health request answered with %r" % reply[0])

    def vm_hwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for the server process")

    def counters(self):
        """The server's own `S` report, one dict per line: {'server': {...}, ...}."""
        reply = self.conn.call(encode_frame([b"S"]))
        out = {}
        for line in reply[1].decode().splitlines():
            name, _, rest = line.partition(":")
            out[name] = {k: float(v) for k, _, v in
                         (kv.partition("=") for kv in rest.split())}
        return out

    def stop(self):
        try:
            if self.conn is not None:
                self.conn.call(encode_frame([b"X"]))
                self.conn.close()
            self.proc.wait(timeout=30)
        except Exception:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.stderr.close()


_ref = {}


def reference_loop():
    """Nanoseconds this CPU takes, right now, for a fixed piece of work:
    integer arithmetic, dictionary inserts, and reads at random places of
    a table larger than the per-core caches.  Each call reads places no
    call has read for a while, so back-to-back calls find the caches as
    cold as a call after a request does."""
    if not _ref:
        _ref["table"] = list(range(REF_TABLE_SIZE))
        _ref["probes"] = list(range(0, REF_TABLE_SIZE, 7))
        random.Random(1).shuffle(_ref["probes"])
        _ref["next"] = 0
    table = _ref["table"]
    start = _ref["next"]
    probes = _ref["probes"][start:start + REF_PROBES]
    _ref["next"] = (start + REF_PROBES) % (len(_ref["probes"]) - REF_PROBES)
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(REF_ITERS):
        s += i * i
    for i in probes:
        s += table[i]
    d = {}
    for i in range(REF_INSERTS):
        d[i * 7919] = i
    return time.perf_counter_ns() - t0


def normalized(ns, ref):
    """A time measured while the reference loop took `ref` ns, as it
    would read on the reference machine."""
    return ns * (REF_NS / ref) ** REF_EXPONENT


def setup_server(inputs, sock_path, tally):
    """Launch, wait until ready, send the warm-up script.  Returns the
    server, the seconds taken and the reference-loop time around them."""
    refs = [reference_loop() for _ in range(3)]
    t0 = time.perf_counter()
    server = Server(inputs, sock_path)
    try:
        server.wait_ready(time.monotonic() + 60)
        for i, (kind, view, frame) in enumerate(inputs.warmup):
            tally.check(inputs, kind, view, server.conn.call(frame), "warm-up %d" % i)
    except BaseException:
        server.stop()
        raise
    secs = time.perf_counter() - t0
    refs += [reference_loop() for _ in range(3)]
    return server, secs, statistics.median(refs)


def timed_pass(inputs, server, tally):
    """Play the timed script once.  Returns per request its round-trip
    nanoseconds, its cycle nanoseconds (round trip plus the client's
    check of the reply: the timed phase is the sum of the cycles) and the
    median reference-loop time of the runs around it (the loop runs
    between requests after every REF_EVERY_NS of them)."""
    call = server.conn.call
    clock = time.perf_counter_ns
    lat, cycle, block = [], [], []
    gc.collect()
    gc.disable()
    try:
        refs = [reference_loop()]
        since = 0
        for i, (kind, view, frame) in enumerate(inputs.script):
            t0 = clock()
            fields = call(frame)
            t1 = clock()
            tally.check(inputs, kind, view, fields, "request %d" % i)
            t2 = clock()
            lat.append(t1 - t0)
            cycle.append(t2 - t0)
            block.append(len(refs) - 1)
            since += t2 - t0
            if since >= REF_EVERY_NS:
                refs.append(reference_loop())
                since = 0
        refs.append(reference_loop())
    finally:
        gc.enable()
    # requests of block b ran between refs[b] and refs[b + 1]
    near = [statistics.median(refs[max(0, b - 1):b + 3]) for b in range(len(refs))]
    return lat, cycle, [near[b] for b in block]


def cross_check(inputs, stats, setup_tally, tally):
    """The server's own counters cover one warm-up and one pass."""
    srv = stats.get("server", {})
    reqs = inputs.warmup + inputs.script
    for what, client, server_side in (
        ("queries", sum(1 for k, _, _ in reqs if k == "Q"), srv.get("queries")),
        ("failed", setup_tally.server_failed + tally.server_failed, srv.get("failed")),
        ("rejected", setup_tally.rejected + tally.rejected, srv.get("rejected")),
        ("result-tier hits", setup_tally.result_hits + tally.result_hits,
         stats.get("result", {}).get("hits")),
    ):
        if server_side != client:
            tally.error("server counts %s=%s, the client saw %d" % (what, server_side, client))
    if setup_tally.failed:
        tally.error("warm-up: %d failed replies, first: %s"
                    % (setup_tally.failed, setup_tally.first_error))


def end_to_end(inputs, run_dir):
    """Set the server up SETUPS times; the last `passes` set-ups each play
    the timed script.  Every time is normalized by the reference loop run
    beside it.  The percentiles pool the latencies of all passes; the
    throughput is the median over passes of requests per second of the
    pass's timed phase."""
    sock_path = os.path.join(run_dir, "s.sock")
    passes = inputs.meta["passes"]
    launches = max(SETUPS, passes)
    setups, raw_setups, hwm_kb, failed = [], [], [], 0
    ms, rps, hits = [], [], []
    queries = [kind == "Q" for kind, _, _ in inputs.script]
    for i in range(launches):
        setup_tally, tally = Tally(), Tally()
        server, secs, ref = setup_server(inputs, sock_path, setup_tally)
        setups.append(normalized(secs, ref))
        raw_setups.append(secs)
        try:
            if i < launches - passes:
                if setup_tally.failed:
                    log("set-up %d: %d failed replies, first: %s"
                        % (i + 1, setup_tally.failed, setup_tally.first_error))
                failed += setup_tally.failed
                continue
            lat, cycle, refs = timed_pass(inputs, server, tally)
            pass_ms = sorted(normalized(ns, r) / 1e6 for ns, r, q in zip(lat, refs, queries) if q)
            raw_ms = sorted(ns / 1e6 for ns, q in zip(lat, queries) if q)
            ms += pass_ms
            rps.append(len(cycle) / (sum(normalized(ns, r) for ns, r in zip(cycle, refs)) / 1e9))
            stats = server.counters()
            cross_check(inputs, stats, setup_tally, tally)
            hits.append(stats.get("result", {}).get("hits", 0) - setup_tally.result_hits)
            hwm_kb.append(server.vm_hwm_kb())
        finally:
            server.stop()
        failed += tally.failed
        log("pass %d: %d requests in %.3f s (%.1f/s normalized, reference loop "
            "%.3f-%.3f ms), p50 %.4f p90 %.4f ms normalized (raw %.4f %.4f), "
            "VmHWM %d kB, %d failed, %d mismatched, result-tier hits %d/%d%s"
            % (len(rps), len(cycle), sum(cycle) / 1e9, rps[-1],
               min(refs) / 1e6, max(refs) / 1e6,
               nearest_rank(pass_ms, 0.5), nearest_rank(pass_ms, 0.9),
               nearest_rank(raw_ms, 0.5), nearest_rank(raw_ms, 0.9),
               hwm_kb[-1], tally.failed, tally.mismatches,
               hits[-1], tally.queries,
               "; first failure: " + tally.first_error if tally.first_error else ""))

    ms.sort()
    metrics = {
        "throughput_rps": (statistics.median(rps), "1/s"),
        "latency_p50_ms": (nearest_rank(ms, 0.50), "ms"),
        "latency_p90_ms": (nearest_rank(ms, 0.90), "ms"),
        "peak_rss_mb": (statistics.median(hwm_kb) / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    log("%s seed %s: %d requests x %d passes, %d failed, server result-tier hit share "
        "%.3f; set-ups %s s (raw %s s)"
        % (inputs.meta["workload"], inputs.meta["seed"], len(queries), passes, failed,
           sum(hits) / (passes * sum(queries)),
           " ".join("%.4f" % s for s in setups), " ".join("%.4f" % s for s in raw_setups)))
    for name, (value, unit) in metrics.items():
        log("  %-16s %12.4f %s" % (name, value, unit))
    return passes * len(queries), failed, metrics


def traced(run_dir, workload):
    out = run([HELPER, "replay", "--workload", workload, "--dir", run_dir])
    result = json.loads(out.strip().splitlines()[-1])
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    return result["attempted"], result["failed"], metrics


# --- plumbing ---------------------------------------------------------------


def run(args, timeout=STEP_TIMEOUT):
    try:
        p = subprocess.run(args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % " ".join(args[:2]))
    except OSError as e:
        raise BenchError("cannot run %s: %s" % (args[0], e))
    if p.returncode != 0:
        raise BenchError("%s exited with code %d" % (" ".join(args[:2]), p.returncode))
    return p.stdout.decode()


def build():
    if not os.path.exists("dune-project"):
        raise BenchError("no dune-project here: run from the root of a SilkRoute checkout")
    run(["dune", "build", "--root", ".", "--display", "quiet",
         "./bin/silkroute_cli.exe", "./perfbench/silkbench.exe"], timeout=BUILD_TIMEOUT)


def pin_to_one_cpu():
    """Client and server share one CPU, inherited by every child process.
    In a closed loop only one of them is runnable at a time, and a
    hand-off on one CPU skips the cross-CPU wake-up whose cost varies
    from run to run on a virtual machine."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def measure(workload, seed, seconds, trace, want):
    """One run of one workload: its JSON result object."""
    run_dir = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    try:
        os.makedirs(run_dir)
        run([HELPER, "gen", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--dir", run_dir])
        if trace:
            attempted, failed, metrics = traced(run_dir, workload)
        else:
            attempted, failed, metrics = end_to_end(Inputs(run_dir), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    missing = sorted(set(want) - set(metrics))
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    for name, unit in want.items():
        if metrics[name][1] != unit:
            raise BenchError("%s measured in %s, BENCHMARK.json says %s"
                             % (name, metrics[name][1], unit))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in want.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    pin_to_one_cpu()
    try:
        spec, want = expected_metrics(args.trace)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError("unknown workload %r" % args.workload)
        build()
        if args.workload != "all":
            out = measure(args.workload, args.seed, args.seconds, args.trace, want)
        else:
            results = {w: measure(w, args.seed, args.seconds, args.trace, want) for w in names}
            for w, r in results.items():
                print("%s: %d attempted, %d failed" % (w, r["attempted"], r["failed"]))
                for name, m in r["metrics"].items():
                    print("  %-28s %14.4f %s" % (name, m["value"], m["unit"]))
            out = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {"%s/%s" % (w, name): m for w, r in results.items()
                            for name, m in r["metrics"].items()},
            }
        print(json.dumps(out), flush=True)
        return 0 if out["correct"] else 1
    except (BenchError, OSError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
