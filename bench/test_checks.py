"""Tests of the benchmark's output checks.

Each workload runs once at a small size. Its outputs must pass every check,
and a deliberately corrupted copy of an output must fail the check written
for it.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "csep-test": dict(n_lon=20, n_lat=20, n_sim=10),
    "hawkes-eval": dict(n_events=120, restarts=1, max_iter=3, voronoi_grid=20,
                        errordiag_grid=20, k_sims=5),
    "grid-diagnostics": dict(n_side=16, n_events=80, k_sims=5, voronoi_grid=40),
}


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """Runs a small workload once: name -> (workload, inputs, outputs)."""
    from eqassess import cli

    cache = {}

    def get(name):
        if name not in cache:
            wl = dataclasses.replace(WORKLOADS[name], **SMALL[name])
            base = tmp_path_factory.mktemp(name)
            inp, out = str(base / "in"), str(base / "out")
            os.makedirs(inp)
            wl.generate(inp, 3)
            for op, cmd in wl.commands(inp, out, 3):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(cmd) == 0, op
            cache[name] = wl, inp, out
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_pass_their_checks(ran, name):
    wl, inp, out = ran(name)
    failures = checks.run_checks(wl, inp, out, list(checks.CHECKS[name]))
    for op, msgs in failures.items():
        known = checks.KNOWN_FAULTS.get((name, op), set())
        assert [m for m in msgs if m.split(":")[0] not in known] == [], op


def rewrite_cell(path, row, column, change):
    """Apply change to one field of a CSV data row (row 0 is the first)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = [i for i, s in enumerate(lines) if s and not s.startswith("#")]
    header = lines[body[0]].split(",")
    i = body[1:][row]
    fields = lines[i].split(",")
    j = header.index(column)
    fields[j] = change(fields[j])
    lines[i] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def rewrite_text(path, change):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(change(text))


def shift_comment(path, key, delta):
    def change(text):
        rows = text.splitlines()
        for i, r in enumerate(rows):
            if r.startswith(f"# {key} = "):
                rows[i] = f"# {key} = {float(r.split('=')[1]) + delta!r}"
        return "\n".join(rows) + "\n"
    rewrite_text(path, change)


def drop_last_line(path):
    rewrite_text(path, lambda s: "\n".join(s.splitlines()[:-1]) + "\n")


def scale(factor):
    return lambda v: repr(float(v) * factor)


def shift(delta):
    return lambda v: repr(float(v) + delta)


def results_row(name):
    order = ["n", "l", "m", "s", "r_ab", "r_ba", "t", "w"]
    return order.index(name)


def corrupt_l_sims(delta):
    def change(text):
        rows = text.splitlines()
        rows = [r if not r.startswith("l,") else
                "l,{},{}".format(r.split(",")[1], repr(float(r.split(",")[2]) + delta))
                for r in rows]
        return "\n".join(rows) + "\n"
    return change


def wrong_but_consistent_fit(inp, out):
    """A fit far from the optimum whose reported log-likelihood is exact."""
    from checks import etas_loglik, read_params, Plane, read_catalog, read_region

    _, truth = read_params(f"{inp}/truth.txt")
    prm = dict(truth, mu=truth["mu"] * 4.0, k=truth["k"] * 0.2)
    t, x, y, m, T, _ = read_catalog(f"{inp}/catalog.csv")
    ll = etas_loglik(prm, t, x, y, m, T, Plane(*read_region(f"{inp}/region.csv")).area)
    lines = [f"# log_likelihood = {ll!r}"] + [f"{k} = {v!r}" for k, v in prm.items()]
    with open(f"{out}/fit/params.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# (workload, check, corruption(inputs, outputs)) -- every check appears
CORRUPTIONS = [
    ("csep-test", "csep_statistics",
     lambda i, o: rewrite_cell(f"{o}/test/results.csv", results_row("l"), "statistic",
                               scale(1.001))),
    ("csep-test", "csep_statistics",
     lambda i, o: rewrite_cell(f"{o}/test/results.csv", results_row("r_ba"), "statistic",
                               shift(1e-6))),
    ("csep-test", "csep_statistics",
     lambda i, o: rewrite_cell(f"{o}/test/results.csv", results_row("s"), "statistic",
                               shift(0.5))),
    ("csep-test", "csep_t_w",
     lambda i, o: rewrite_cell(f"{o}/test/results.csv", results_row("t"), "statistic",
                               scale(1.01))),
    ("csep-test", "csep_t_w",
     lambda i, o: rewrite_cell(f"{o}/test/results.csv", results_row("w"), "statistic",
                               shift(1.0))),
    ("csep-test", "csep_quantiles",
     lambda i, o: drop_last_line(f"{o}/test/sims.csv")),
    ("csep-test", "csep_quantiles",
     lambda i, o: rewrite_cell(f"{o}/test/results.csv", results_row("m"), "quantile_or_p",
                               shift(0.05))),
    ("csep-test", "csep_decisions",
     lambda i, o: rewrite_text(f"{o}/test/results.csv",
                               lambda s: s.replace("consistent", "reject", 1)
                               if "consistent" in s else s.replace("reject", "consistent", 1))),
    ("csep-test", "csep_null_mean",
     lambda i, o: rewrite_text(f"{o}/test/sims.csv", corrupt_l_sims(-200.0))),
    ("hawkes-eval", "hawkes_fit",
     lambda i, o: shift_comment(f"{o}/fit/params.txt", "log_likelihood", 0.5)),
    ("hawkes-eval", "hawkes_fit", wrong_but_consistent_fit),
    ("hawkes-eval", "hawkes_superthin",
     lambda i, o: rewrite_cell(f"{o}/superthin/points.csv", 0, "lon", shift(-50.0))),
    ("hawkes-eval", "hawkes_superthin",
     lambda i, o: rewrite_text(f"{o}/superthin/points.csv",
                               lambda s: s.replace("superposed", "retained"))),
    ("hawkes-eval", "hawkes_rescale",
     lambda i, o: shift_comment(f"{o}/rescale/taus.csv", "total_mass", 20.0)),
    ("hawkes-eval", "voronoi_cells",
     lambda i, o: rewrite_cell(f"{o}/voronoi/voronoi.csv", 0, "flag",
                               lambda v: "0" if v == "1" else "1")),
    ("hawkes-eval", "hawkes_kfn",
     lambda i, o: rewrite_cell(f"{o}/kfn/kfunction.csv", 5, "k_value", shift(1.0))),
    ("hawkes-eval", "tessellation",
     lambda i, o: rewrite_cell(f"{o}/tessellate/areas.csv", 3, "area_km2", scale(1.1))),
    ("grid-diagnostics", "tessellation",
     lambda i, o: rewrite_cell(f"{o}/tessellate/areas.csv", 0, "gen_lon", shift(1e-3))),
    ("grid-diagnostics", "error_diagram_shape",
     lambda i, o: rewrite_cell(f"{o}/errordiag/errordiag.csv", 0, "miss_fraction",
                               lambda v: "0.9")),
    ("grid-diagnostics", "grid_errordiag",
     lambda i, o: rewrite_cell(f"{o}/errordiag/errordiag.csv", 10, "miss_fraction",
                               shift(0.03))),
    ("grid-diagnostics", "grid_errordiag",
     lambda i, o: rewrite_cell(f"{o}/errordiag/errordiag.csv", 10, "alarm_fraction",
                               shift(1e-3))),
    ("grid-diagnostics", "grid_kfn",
     lambda i, o: rewrite_cell(f"{o}/kfn/kfunction.csv", 9, "k_value", shift(1.0))),
    ("grid-diagnostics", "grid_pixel",
     lambda i, o: rewrite_cell(f"{o}/pixel/raw.csv", 17, "value", shift(1.0))),
    ("grid-diagnostics", "grid_pixel",
     lambda i, o: rewrite_cell(f"{o}/pixel/pearson.csv", 17, "value", scale(1.001))),
    ("grid-diagnostics", "grid_deviance",
     lambda i, o: rewrite_cell(f"{o}/deviance/deviance.csv", 5, "value", shift(1e-3))),
    ("grid-diagnostics", "grid_voronoi",
     lambda i, o: rewrite_cell(f"{o}/voronoi/voronoi.csv", 2, "value", lambda v: "-5.0")),
    ("grid-diagnostics", "grid_simulate",
     lambda i, o: rewrite_cell(f"{o}/simulate/catalog.csv", 0, "lon", shift(-20.0))),
]


def test_every_check_has_a_corruption():
    named = {c.__name__ for ops in checks.CHECKS.values() for cs in ops.values() for c in cs}
    assert named == {name for _, name, _ in CORRUPTIONS}


@pytest.mark.parametrize("workload,name,corrupt", CORRUPTIONS,
                         ids=[f"{w}:{n}" for w, n, _ in CORRUPTIONS])
def test_corrupted_output_fails_its_check(ran, workload, name, corrupt, tmp_path):
    wl, inp, out = ran(workload)
    check = next(c for ops in checks.CHECKS.values() for cs in ops.values() for c in cs
                 if c.__name__ == name)
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    check(checks.Run(wl, inp, copy))   # the pristine copy passes
    corrupt(inp, copy)
    with pytest.raises(checks.CheckFailed):
        check(checks.Run(wl, inp, copy))
