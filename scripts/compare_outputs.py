"""Compare the output files of two eqassess source trees, byte for byte.

Generates one benchmark workload's inputs for a seed (with the workload
definitions of bench/workloads.py, imported read-only), runs the workload's
commands once against each tree, and prints the SHA-256 of every artifact
with `match` or `MISMATCH`; a mismatching CSV file also gets the largest
relative difference in each of its numeric columns, and a mismatching
GeoJSON file of the same feature and ring sizes the largest absolute
coordinate difference and the largest relative difference of each numeric
property (otherwise "shapes differ"). Both runs use the same input and
output paths, because each manifest echoes the paths it was given; the
output directory is emptied between them. Exits 1 on any mismatch, in a file or in a
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
import math
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


def contents(out: str) -> dict:
    """The bytes of every file under out, by path relative to out."""
    found = {}
    for parent, _, files in os.walk(out):
        for name in files:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = fh.read()
    return found


def _numeric_fields(text: str) -> dict:
    """Each `# name = value` comment and each column whose every entry
    parses as a float, by name, as a list of floats."""
    fields, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            name, _, value = line[1:].partition("=")
            try:
                fields["# " + name.strip()] = [float(value)]
            except ValueError:
                pass
        else:
            rows.append(line.split(","))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    for k, name in enumerate(header):
        try:
            fields[name] = [float(row[k]) for row in body]
        except (ValueError, IndexError):
            pass
    return fields


def _absolute_difference(x: float, y: float) -> float:
    """|x - y|: 0 for equal values (two nans included), inf where only one
    side is finite or a nan."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf


def _relative_difference(x: float, y: float) -> float:
    """_absolute_difference(x, y) / max(|x|, |y|), where that is finite and
    nonzero."""
    d = _absolute_difference(x, y)
    return d / max(abs(x), abs(y)) if 0.0 < d < math.inf else d


def csv_drift(base: str, head: str) -> dict:
    """The largest relative difference in each numeric field (column or
    `#` comment) of two CSV texts, for the fields both have with the same
    number of values."""
    a, b = _numeric_fields(base), _numeric_fields(head)
    return {name: max(map(_relative_difference, a[name], b[name]), default=0.0)
            for name in a if name in b and len(a[name]) == len(b[name])}


def _numbers(x, out: list):
    """Append the numbers of the nested lists x to out, in order, and
    return x's shape: None for a number, else the list of its items'
    shapes."""
    if isinstance(x, list):
        return [_numbers(v, out) for v in x]
    out.append(x)
    return None


def _is_number(v) -> bool:
    return v is None or (isinstance(v, (int, float)) and not isinstance(v, bool))


def geojson_drift(base: str, head: str):
    """For two GeoJSON FeatureCollection texts of the same feature count
    and geometry shapes: the largest absolute coordinate difference, under
    "coordinates", and the largest relative difference of each property
    that is numeric (or null) in every feature of both. None where the
    shapes differ."""
    feats = [json.loads(text)["features"] for text in (base, head)]
    coords = ([], [])
    shapes = [[(f["geometry"]["type"], _numbers(f["geometry"]["coordinates"], out)) for f in fs]
              for fs, out in zip(feats, coords)]
    if shapes[0] != shapes[1]:
        return None
    drift = {"coordinates": max(map(_absolute_difference, *coords), default=0.0)}
    for name in sorted(feats[0][0]["properties"] if feats[0] else ()):
        columns = [[f["properties"].get(name) for f in fs] for fs in feats]
        if all(map(_is_number, columns[0] + columns[1])):
            nan = [[math.nan if v is None else v for v in col] for col in columns]
            drift[name] = max(map(_relative_difference, *nan), default=0.0)
    return drift


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
        sides.append((codes, contents(out)))
    (codes_a, files_a), (codes_b, files_b) = sides
    bad = 0
    for (op, _), a, b in zip(ops, codes_a, codes_b):
        if a != b:
            bad += 1
            print(f"MISMATCH exit {op}: base={a} head={b}")
    for name in sorted(set(files_a) | set(files_b)):
        a, b = (hashlib.sha256(files[name]).hexdigest() if name in files else "missing"
                for files in (files_a, files_b))
        if a == b:
            print(f"match    {name} {a}")
            continue
        bad += 1
        line = f"MISMATCH {name} base={a} head={b}"
        if name.endswith(".csv") and name in files_a and name in files_b:
            drift = csv_drift(files_a[name].decode(), files_b[name].decode())
            line += " max rel diff: " + ", ".join(f"{col} {v:.2g}" for col, v in drift.items())
        if name.endswith(".geojson") and name in files_a and name in files_b:
            drift = geojson_drift(files_a[name].decode(), files_b[name].decode())
            line += " shapes differ" if drift is None else (
                f" max abs coordinate diff {drift.pop('coordinates'):.2g}, max rel diff: "
                + ", ".join(f"{prop} {v:.2g}" for prop, v in drift.items()))
        print(line)
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
