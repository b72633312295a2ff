"""Compare the output files of two eqassess source trees, byte for byte.

Generates one benchmark workload's inputs for a seed (with the workload
definitions of bench/workloads.py, imported read-only), runs the workload's
commands once against each tree, and prints the SHA-256 of every artifact
with `match` or `MISMATCH`. Both runs use the same input and output paths,
because each manifest echoes the paths it was given; the output directory
is emptied between them. Exits 1 on any mismatch, in a file or in a
command's exit code.

    python scripts/compare_outputs.py --workload grid-diagnostics --seed 7 \\
        --base ../parent/src [--head src] [--work DIR]

--base and --head are directories holding the `eqassess` package (a
checkout's src/). Without --work the inputs and outputs go to a temporary
directory that is removed afterwards.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# runs in a fresh interpreter with one tree on sys.path: every command in
# order, printing the exit codes as one JSON list
_RUNNER = """
import contextlib, json, os, sys
from eqassess.cli import main
codes = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for argv in json.loads(sys.argv[1]):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def _load_workloads():
    sys.dont_write_bytecode = True  # leave bench/ untouched
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads
    return workloads.WORKLOADS


def run_tree(src: str, commands: list) -> list:
    """Exit code of each command, run in order against the tree at src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(commands)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def digests(out: str) -> dict:
    """SHA-256 of every file under out, by path relative to out."""
    found = {}
    for parent, _, files in os.walk(out):
        for name in files:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def compare(workload, seed: int, base: str, head: str, work: str) -> int:
    inputs = os.path.join(work, "inputs")
    out = os.path.join(work, "out")
    os.makedirs(inputs, exist_ok=True)
    workload.generate(inputs, seed)
    ops = workload.commands(inputs, out, seed)
    commands = [argv for _, argv in ops]
    sides = []
    for src in (base, head):
        shutil.rmtree(out, ignore_errors=True)
        codes = run_tree(src, commands)
        sides.append((codes, digests(out)))
    (codes_a, files_a), (codes_b, files_b) = sides
    bad = 0
    for (op, _), a, b in zip(ops, codes_a, codes_b):
        if a != b:
            bad += 1
            print(f"MISMATCH exit {op}: base={a} head={b}")
    for name in sorted(set(files_a) | set(files_b)):
        a, b = files_a.get(name, "missing"), files_b.get(name, "missing")
        if a == b:
            print(f"match    {name} {a}")
        else:
            bad += 1
            print(f"MISMATCH {name} base={a} head={b}")
    print(f"{workload.name} seed {seed}: {len(files_a | files_b)} artifacts, "
          f"{bad} mismatch{'es' if bad != 1 else ''}")
    return 1 if bad else 0


def main(argv=None) -> int:
    workloads = _load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--base", required=True, help="src/ directory of the first tree")
    ap.add_argument("--head", default=os.path.join(ROOT, "src"),
                    help="src/ directory of the second tree (default: this checkout)")
    ap.add_argument("--work", default=None, help="directory for inputs and outputs")
    args = ap.parse_args(argv)
    if args.work is not None:
        return compare(workloads[args.workload], args.seed, args.base, args.head, args.work)
    with tempfile.TemporaryDirectory() as work:
        return compare(workloads[args.workload], args.seed, args.base, args.head, work)


if __name__ == "__main__":
    sys.exit(main())
