"""Benchmark of the eqassess command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run generates the workload's inputs
from the seed (several times, timing each), then runs passes of the
workload's eqassess commands, each pass in a fresh process with one
BLAS/OpenMP thread and --jobs 1, until S seconds are used. The first
pass's outputs are checked against the benchmark's own recomputation; every
later pass must reproduce them byte for byte. Pass and set-up times are
scaled to a nominal machine speed, measured by a micro-task sampled inside
the pass and the set-up (probe.py). The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0; with --trace 1 the per-layer metrics of
traced passes, alternated with untraced ones to measure the overhead).
"""

from __future__ import annotations

import os

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(ONE_THREAD)   # before numpy loads in this process too

import argparse
import contextlib
import filecmp
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import probe
import tracing
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
# set-up runs in batches, one before each pass, so that its repeats sample
# the machine across the whole run; a batch repeats until it has taken
# SETUP_BATCH_SECONDS or run SETUP_BATCH_MAX times, and setup_s is the median
# of all repeats
SETUP_BATCH_SECONDS, SETUP_BATCH_MAX = 0.25, 12
# a pass still running this many seconds after the run started is killed and
# its operations fail, so that a run ends well within 180 s
RUN_LIMIT = 150.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def out_dir(cmd) -> str:
    return cmd[cmd.index("--out") + 1]


def read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


class Setup:
    """Generates the workload's inputs, timing every repeat.

    The first repeat writes the inputs the passes read; every later one
    writes a scratch copy that must match it byte for byte. The micro-task
    of probe.py is sampled during every batch.
    """

    def __init__(self, wl, seed: int, run_dir: str):
        self.wl, self.seed = wl, seed
        self.inputs = os.path.join(run_dir, "inputs")
        self.again = os.path.join(run_dir, "again")
        self.times = []     # each repeat, less the micro-tasks sampled in it
        self.samples = []   # the micro-task times of every batch

    def batch(self) -> None:
        spent, reps = 0.0, 0
        with probe.Sampler() as sampler:
            while reps < SETUP_BATCH_MAX and (reps == 0 or spent < SETUP_BATCH_SECONDS):
                d = self.again if self.times else self.inputs
                os.makedirs(d)
                t0, n0 = time.perf_counter(), len(sampler.samples)
                self.wl.generate(d, self.seed)
                t1, n1 = time.perf_counter(), len(sampler.samples)
                self.times.append(t1 - t0 - sum(sampler.samples[n0:n1]))
                spent += t1 - t0
                reps += 1
                if d == self.again:
                    names = sorted(os.listdir(self.inputs))
                    _, diff, errs = filecmp.cmpfiles(self.inputs, d, names, shallow=False)
                    if diff or errs or sorted(os.listdir(d)) != names:
                        raise RuntimeError(f"input generation is not deterministic: {diff + errs}")
                    shutil.rmtree(d)
        self.samples += sampler.samples

    def seconds(self) -> float:
        """The median repeat, scaled by the micro-task times of the whole run."""
        return probe.scale(statistics.median(self.times), self.samples)


def run_pass(wl, inputs: str, out: str, seed: int, trace: bool, root: str, limit: float):
    """One pass in a fresh process, killed after limit seconds:
    (wall seconds, scaled seconds, peak RSS MB, report). The scaled
    seconds are the wall time less the micro-tasks sampled in the pass,
    scaled by their median (probe.py); a pass that wrote no report keeps
    its wall time."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    report_path = os.path.join(out, "report.json")
    cmd = [sys.executable, os.path.join(BENCH, "passrun.py"), "--workload", wl.name,
           "--inputs", inputs, "--out", out, "--seed", str(seed), "--report", report_path]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **ONE_THREAD)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    report, scaled = None, wall
    if proc.returncode == 0:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        scaled = probe.scale(wall - sum(report["probe"]), report["probe"])
    return wall, scaled, usage.ru_maxrss / 1024.0, report


class Outcome:
    """Attempted and failed operations, and whether every failure is known."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference = None   # op -> (manifest bytes, check failures) of the first pass
        self.logged = set()

    def fail(self, op: str, why: str, known: bool = False) -> None:
        self.failed += 1
        self.correct = self.correct and known
        if (op, why) not in self.logged:
            self.logged.add((op, why))
            log(f"{self.wl.name} {op}: {why}")

    def record(self, commands, inputs: str, out: str, report) -> None:
        exits = {o["op"]: o["exit"] for o in report["ops"]} if report else {}
        manifests = {op: read_bytes(os.path.join(out_dir(cmd), "manifest.txt"))
                     for op, cmd in commands}
        if self.reference is None:
            ok_ops = [op for op, _ in commands if exits.get(op) == 0]
            found = checks.run_checks(self.wl, inputs, out, ok_ops)
            self.reference = {op: (manifests[op], found.get(op, [])) for op, _ in commands}
        for op, _ in commands:
            self.attempted += 1
            if exits.get(op) != 0:
                self.fail(op, f"exit status {exits.get(op)}")
                continue
            manifest, found = self.reference[op]
            if manifests[op] != manifest:
                self.fail(op, "output differs from the first pass")
            elif found:
                known = checks.KNOWN_FAULTS.get((self.wl.name, op), set())
                self.fail(op, "; ".join(found),
                          all(msg.split(":")[0] in known for msg in found))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eqassess", "cli.py")):
        log("bench/run.py: no src/eqassess here; run it from the root of an eqassess checkout")
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(root, ".bench_runs", f"{wl.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup = Setup(wl, args.seed, run_dir)
        setup.batch()
        inputs = setup.inputs
        out = os.path.join(run_dir, "out")
        commands = wl.commands(inputs, out, args.seed)
        outcome = Outcome(wl)
        walls = {False: [], True: []}
        passes = {False: [], True: []}
        rss, layers = [], []
        start = time.perf_counter()
        traced = False
        while True:
            if walls[False] or walls[True]:
                setup.batch()
            limit = max(1.0, RUN_LIMIT - (time.perf_counter() - started))
            wall, scaled, peak, report = run_pass(wl, inputs, out, args.seed, traced, root, limit)
            walls[traced].append(wall)
            passes[traced].append(scaled)
            outcome.record(commands, inputs, out, report)
            if traced and report:
                layers.append(tracing.layer_metrics(report["spans"]))
            elif not traced:
                rss.append(peak)
            ops = " ".join(f"{o['op']}={o['seconds']:.2f}" for o in (report or {}).get("ops", []))
            log(f"{wl.name} pass {'traced' if traced else 'untraced'}: {wall:.3f} s, "
                f"{scaled:.3f} s scaled, "
                f"{peak:.1f} MB ({ops})")
            if args.trace:
                traced = not traced
            done = sum(map(len, walls.values()))
            elapsed = time.perf_counter() - start
            next_pass = statistics.median(walls[traced] or walls[not traced])
            if done >= 1 + args.trace and elapsed + next_pass > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run may still use it
            os.rmdir(os.path.dirname(run_dir))

    if args.trace:
        metrics = {}
        for name in tracing.per_layer_names():
            if name == tracing.OVERHEAD:
                value = statistics.median(passes[True]) - statistics.median(passes[False])
            else:
                value = statistics.median(m[name] for m in layers) if layers else 0
            metrics[name] = metric(value, tracing.unit(name))
    else:
        metrics = {
            "pass_s": metric(statistics.median(passes[False]), "s"),
            "setup_s": metric(setup.seconds(), "s"),
            "peak_rss_mb": metric(statistics.median(rss), "MB"),
        }
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
