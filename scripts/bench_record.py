"""Record one benchmark run of every workload as a trend file.

Runs the benchmark command that BENCHMARK.json declares (bench/run.py),
with --trace 0, once for each of its workloads at the given --seed and
--seconds, from the root of this checkout. Writes each run's result line
(the last line of its standard output), with the seed, the run length and
the number of processors this process may run on, to BENCH_<n>.json:

    python scripts/bench_record.py --n 23 --seed 7 --seconds 40

Exits 1 when a run fails or its result is not correct; the file is written
all the same, so the failure is on record.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record(seed: int, seconds: float) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    results = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [*bench["command"], "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        results[name] = (json.loads(lines[-1]) if done.returncode == 0 and lines
                         else {"correct": False, "exit_code": done.returncode})
    return {"seed": seed, "seconds": seconds, "nproc": len(os.sched_getaffinity(0)),
            "results": results}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True, help="the number in BENCH_<n>.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    trend = record(args.seed, args.seconds)
    path = os.path.join(ROOT, f"BENCH_{args.n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(trend, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0 if all(r.get("correct") for r in trend["results"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
