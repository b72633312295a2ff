"""One pass of a workload: every eqassess command of the workload, in order,
in this fresh process.

    python bench/passrun.py --workload NAME --inputs DIR --out DIR --seed N
                            --report FILE [--trace]

Needs src/ on PYTHONPATH. Writes a JSON report with each command's exit
code, the times of the micro-task that probe.py samples while the pass
runs, and, with --trace, the spans of the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback

import probe
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    with probe.Sampler() as sampler:
        from eqassess import cli

        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.install()
        ops = []
        with open(os.devnull, "w") as sink:
            for op, cmd in WORKLOADS[args.workload].commands(args.inputs, args.out, args.seed):
                run = tracer.wrap(f"cli.{cmd[0]}", cli.main) if tracer else cli.main
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(sink):
                        code = run(cmd)
                except Exception:
                    # an uncaught error is one failed operation; the pass goes on
                    traceback.print_exc()
                    code = -1
                ops.append({"op": op, "exit": code, "seconds": time.perf_counter() - t0})
    report = {"ops": ops, "probe": sampler.samples, "spans": tracer.spans if tracer else None}
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
