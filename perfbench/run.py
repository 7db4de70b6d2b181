"""Route-level benchmark of the altsign CLI.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout (the CLI is imported from ./src).
Each op is one fresh ``python -m altsign.cli <argv>`` process, as a user
runs it, so the package's caches start cold.  One client drives a closed
loop over the workload's seeded argv stream (see workloads.py) and reads
each child's wall time and ``os.wait4`` resource usage.  The stream is a
fixed number of passes over the workload's deck, set by --seconds alone,
so every commit runs the same ops.

--trace 0 reports the end-to-end metrics; --trace 1 runs each distinct
argv of the deck twice, plain and under tracer.py, and reports the
per-layer metrics.  --workload all runs every workload in turn.  The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics; the full result (run metadata, every op, and for traced runs
every op's layer records) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_ARGV = ("count", "--n", "1", "--l", "2")
# Half of the set-up runs go before the loop and half after it, so that
# their median spans the run rather than one moment of a shared host.
SETUP_REPEATS = 10
# No op starts after this, so that a run on a slow machine still ends
# inside the 180 s a run may take.  A run cut here reports it.
HARD_STOP_S = 120
# Host-speed probe.  On a shared host the same op runs at one of two speeds
# about 1.6x apart, switching within seconds, and the mix drifts from
# minute to minute, so raw wall times of one commit spread by 10-30%
# between runs of 30-60 s.  A background thread times a fixed slice of
# pure-Python work every PROBE_PERIOD_S while a run goes on; every time
# metric is scaled by PROBE_REFERENCE_S / (median probe time), a nominal
# probe time close to the probe's median on the reference machine (see
# README); it sets the scale only.
PROBE_PERIOD_S = 0.05
PROBE_REFERENCE_S = 0.00095
# Allowed gap between the summed layer self times of a traced op and its
# cli.main call clocked from outside the wrappers: the outermost wrapper's
# own call overhead.
SELF_TIME_SLACK_NS = 1_000_000

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "setup_s": "s",
}

# Per-layer size counters: name -> (unit, aggregation over a run's ops).
# "op": mean per op; "max": largest in the run; "call": mean per call of
# the wrapped name the counter's name extends.
COUNTERS = {
    "exactalg.Gf.mul.terms_out": ("terms", "call"),
    "exactalg.Gf.mul.coeff_bits_max": ("bits", "max"),
    "exactalg.MPoly.mul.terms_out": ("terms", "call"),
    "exactalg.det_fraction_free.order_max": ("rows", "max"),
    "operatorform.compute_Mn.misses": ("misses/op", "op"),
    "operatorform.compute_Mn.terms": ("terms", "max"),
    "trapezoid.enumerate_trapezoids.objects": ("objects/op", "op"),
    "cssp.enumerate_cssps.objects": ("objects/op", "op"),
    "sttree.enumerate_sttrees.objects": ("objects/op", "op"),
    "pathfam.all_families.objects": ("objects/op", "op"),
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"process.start_s": "s/op"}
    for name, *_ in tracer.WRAPPED:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
    units.update((name, unit) for name, (unit, _) in COUNTERS.items())
    units["trace_overhead_share"] = "ratio"
    return units


# --- host speed --------------------------------------------------------------

def probe_work() -> int:
    """A fixed slice of interpreter work (about 1 ms) that uses no
    altsign code, so its time moves with the host and not with the code
    under test."""
    x, table = 0, {}
    for i in range(5000):
        x = (x * 31 + i) % 1000003
        table[i & 1023] = x
    return x


class SpeedProbe:
    """Times probe_work every PROBE_PERIOD_S in a background thread while
    the with-block runs; the main thread waits in wait4 meanwhile."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            probe_work()
            self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        """Host slowness relative to the reference machine (1: as fast)."""
        return statistics.median(self.samples) / PROBE_REFERENCE_S


# --- running one op ----------------------------------------------------------

class Runner:
    """Spawns CLI processes from the checkout and checks their output."""

    def __init__(self, reference):
        self.reference = reference
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        self.env = env
        tag = f"{os.getpid()}"
        self.stdout_path = os.path.join(OUT, f"{tag}.stdout")
        self.stderr_path = os.path.join(OUT, f"{tag}.stderr")
        self.records_path = os.path.join(OUT, f"{tag}.records.json")

    def spawn(self, cmd):
        """(wall seconds, exit code, rusage, stdout bytes) of one process."""
        with open(self.stdout_path, "wb") as out, \
                open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            pid = os.posix_spawn(cmd[0], cmd, self.env, setpgroup=0,
                                 file_actions=[
                                     (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                     (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                # interrupted: stop the op and its --jobs workers too
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            wall = time.perf_counter() - start
        with open(self.stdout_path, "rb") as f:
            stdout = f.read()
        return wall, os.waitstatus_to_exitcode(status), usage, stdout

    def op(self, argv, traced=False) -> dict:
        cmd = [sys.executable]
        if traced:
            cmd += [os.path.join(BENCH, "tracer.py"), self.records_path, "--"]
        else:
            cmd += ["-m", "altsign.cli"]
        wall, code, usage, stdout = self.spawn(cmd + list(argv))
        ok = workloads.output_ok(argv, code, stdout, self.reference)
        if not ok:
            with open(self.stderr_path, "rb") as f:
                err = f.read().decode(errors="replace")[-2000:]
            print(f"failed op (exit {code}): {' '.join(argv)}\n{err}",
                  file=sys.stderr)
        return {"argv": " ".join(argv), "wall_s": wall, "exit": code,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024, "ok": ok}

    def remove_scratch_files(self):
        for path in (self.stdout_path, self.stderr_path, self.records_path):
            if os.path.exists(path):
                os.remove(path)

    def traced(self, argv):
        """(op, records) of one op under tracer.py; a traced op whose
        records are missing or whose self times do not add up to its
        in-process time fails."""
        if os.path.exists(self.records_path):
            os.remove(self.records_path)
        op = self.op(argv, traced=True)
        try:
            with open(self.records_path) as f:
                rec = json.load(f)
        except (OSError, ValueError):
            rec = dict(NO_RECORDS)
        op["ok"] = op["ok"] and self_times_consistent(rec)
        return op, rec


class Loop(NamedTuple):
    issued: list        # argvs, in the order they ran
    elapsed: float      # wall seconds of the loop
    cut: bool           # HARD_STOP_S ended the loop before the stream did
    results: list       # what run_op returned, per op


def closed_loop(argvs, run_op):
    """Run the ops one after another, each when the last has exited."""
    issued, results = [], []
    start = time.perf_counter()
    for argv in argvs:
        if time.perf_counter() - start >= HARD_STOP_S:
            break
        results.append(run_op(argv))
        issued.append(argv)
    return Loop(issued, time.perf_counter() - start,
                len(issued) < len(argvs), results)


# --- metrics -----------------------------------------------------------------

def tail_percentile(values):
    """(percentile, value): the highest whole percentile that keeps at
    least 10 samples above it (nearest rank); the median below 11 samples."""
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return 50, statistics.median(ordered)
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1]


# Time metrics, which are scaled to the reference host speed, and whether
# the time is in the numerator.
TIMES = {"ops_per_s": False, "latency_p50_s": True, "latency_tail_s": True,
         "cpu_s_per_op": True, "setup_s": True}


def end_to_end(ops, elapsed, setup_walls, slowdown):
    """(metrics, raw, notes): every time metric is scaled by 1/slowdown;
    raw holds the same metrics unscaled."""
    walls = [o["wall_s"] for o in ops]
    failed = sum(not o["ok"] for o in ops)
    p, tail = tail_percentile(walls)
    raw = {
        "ops_per_s": len(ops) / elapsed,
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail,
        "cpu_s_per_op": statistics.median(o["cpu_s"] for o in ops),
        "peak_rss_mb": max(o["rss_mb"] for o in ops),
        "ok_share": (len(ops) - failed) / len(ops),
        "setup_s": statistics.median(setup_walls),
    }
    metrics = dict(raw)
    for name, is_time in TIMES.items():
        metrics[name] *= 1 / slowdown if is_time else slowdown
    notes = {name: f"raw {raw[name]:.6g}" for name in TIMES}
    notes["latency_tail_s"] += f", p{p} of {len(ops)} samples"
    notes["ok_share"] = (f"failed_share {failed / len(ops):g} "
                         f"({failed}/{len(ops)})")
    notes["setup_s"] += (f", median of {len(setup_walls)} x "
                         f"'{' '.join(SETUP_ARGV)}'")
    return metrics, raw, notes


NO_RECORDS = {"calls": {}, "self_ns": {}, "counters": {}, "root_ns": 0,
              "patch_ns": 0, "main_ns": 0, "absent": []}


def self_times_consistent(rec) -> bool:
    """Layer self times of one op sum to its in-process time: cli.main as
    clocked by tracer.main outside every wrapper."""
    total = sum(rec["self_ns"].values())
    return (rec["calls"].get("cli.main") == 1
            and 0 <= rec["main_ns"] - total <= SELF_TIME_SLACK_NS)


def per_layer(pairs):
    """Per-layer metrics from (plain op, traced op, records) triples."""
    n = len(pairs)
    recs = [rec for _, _, rec in pairs]
    metrics = {}
    for name, *_ in tracer.WRAPPED:
        metrics[f"{name}.calls"] = sum(r["calls"].get(name, 0)
                                       for r in recs) / n
        metrics[f"{name}.self_s"] = sum(r["self_ns"].get(name, 0)
                                        for r in recs) / n / 1e9
    for name, (_, how) in COUNTERS.items():
        values = [r["counters"].get(name, 0) for r in recs]
        if how == "max":
            metrics[name] = max(values)
        elif how == "op":
            metrics[name] = sum(values) / n
        else:
            wrapped = name.rsplit(".", 1)[0]
            calls = sum(r["calls"].get(wrapped, 0) for r in recs)
            metrics[name] = sum(values) / calls if calls else 0
    metrics["process.start_s"] = sum(
        t["wall_s"] - (r["root_ns"] + r["patch_ns"]) / 1e9
        for _, t, r in pairs) / n
    metrics["trace_overhead_share"] = (sum(t["wall_s"] for _, t, _ in pairs)
                                       / sum(p["wall_s"] for p, _, _ in pairs))
    return metrics


# --- run metadata ------------------------------------------------------------

def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported tree; git would find an enclosing repo
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    paths = []
    for base, dirs, files in os.walk(os.path.join(SRC, "altsign")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(base, f) for f in files if f.endswith(".py")]
    contents = []
    for path in sorted(paths):
        with open(path, "rb") as f:
            contents.append(os.path.relpath(path, SRC).encode() + b"\0"
                            + f.read())
    return workloads.stdout_digest(b"\0".join(contents))


def metadata(args, workload):
    return {
        "workload": workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(), "source_digest": source_digest(),
    }


# --- the two kinds of run ----------------------------------------------------

def plain_run(workload, args, runner):
    """End-to-end metrics; the set-up runs bracket the closed loop."""
    argvs = workloads.stream(workload, args.seed,
                             workloads.passes(workload, args.seconds))
    with SpeedProbe() as probe:
        setup = [runner.op(SETUP_ARGV) for _ in range(SETUP_REPEATS // 2)]
        loop = closed_loop(argvs, runner.op)
        setup += [runner.op(SETUP_ARGV) for _ in range(SETUP_REPEATS // 2)]
    ops = loop.results
    slowdown = probe.slowdown()
    metrics, raw, notes = end_to_end(ops, loop.elapsed,
                                     [s["wall_s"] for s in setup], slowdown)
    return (loop, metrics, END_TO_END_UNITS, notes, ops + setup,
            {"raw_metrics": raw, "host_slowdown": slowdown,
             "probe_s": probe.samples, "setup": setup, "ops": ops})


def traced_run(workload, args, runner):
    """Per-layer metrics of each distinct argv of the deck, once, in the
    seed's order; each op runs plain, then under the tracer."""
    argvs = list(dict.fromkeys(workloads.stream(workload, args.seed, 1)))
    loop = closed_loop(argvs,
                       lambda argv: (runner.op(argv), *runner.traced(argv)))
    results = loop.results
    metrics = per_layer(results)
    absent = sorted(set().union(*(r["absent"] for _, _, r in results)))
    notes = {key: "absent" for key in metrics
             if any(key.startswith(name + ".") for name in absent)}
    checked = [op for plain, traced, _ in results for op in (plain, traced)]
    detail = {"absent": absent,
              "ops": [{"plain": p, "traced": t, "records": r}
                      for p, t, r in results]}
    return loop, metrics, layer_metric_units(), notes, checked, detail


# --- main --------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn (their "
                             "metric names then carry the workload prefix)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, args, runner):
    """Run one workload, print its report and write its detail file;
    returns (ops checked, ops failed, metrics, units)."""
    meta = metadata(args, workload)
    run = traced_run if args.trace else plain_run
    loop, metrics, units, notes, checked, detail = run(workload, args, runner)
    failed = sum(not o["ok"] for o in checked)
    meta.update(loadavg_end=os.getloadavg(), ops=len(loop.issued),
                cut_at_hard_stop=loop.cut, elapsed_s=loop.elapsed,
                argv_stream_digest=workloads.stream_digest(loop.issued))
    path = os.path.join(OUT, f"{workload}-seed{args.seed}-trace{args.trace}"
                             ".json")
    with open(path, "w") as f:
        json.dump({"meta": meta, "metrics": metrics, **detail}, f)

    cut = f", cut after {HARD_STOP_S} s" if loop.cut else ""
    slow = (f", host slowdown {detail['host_slowdown']:.4g}"
            if "host_slowdown" in detail else "")
    print(f"{workload} seed {args.seed}: {len(loop.issued)} ops in "
          f"{loop.elapsed:.1f} s{cut}{slow}, trace {args.trace}")
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} {value:.6g} {units[key]}{note}")
    print("meta " + json.dumps(meta))
    print(f"detail {os.path.relpath(path, ROOT)}")
    return len(checked), failed, metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "altsign", "cli.py")):
        print(f"error: no altsign sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(workloads.load_reference())
    try:
        runner.op(SETUP_ARGV)  # compiles the package's bytecode into src/
        names = (sorted(workloads.WORKLOADS) if args.workload == "all"
                 else [args.workload])
        results = {w: run_workload(w, args, runner) for w in names}
    finally:
        runner.remove_scratch_files()

    attempted = sum(r[0] for r in results.values())
    failed = sum(r[1] for r in results.values())
    metrics = {}
    for w, (_, _, values, units) in results.items():
        prefix = "" if len(names) == 1 else w + "."
        metrics.update((prefix + k, {"value": v, "unit": units[k]})
                       for k, v in values.items())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
