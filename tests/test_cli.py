"""End-to-end checks of the command-line interface.

Everything goes through ``main(argv)`` so exit codes, option resolution,
and artifact writing are exercised exactly as a shell user would hit them.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from eqassess.catalog import Catalog, Region, serialize_catalog
from eqassess.cli import main
from eqassess.residuals import voronoi_tessellation

REGION_TEXT = "lon,lat\n0,0\n1,0\n1,1\n0,1\n"

# two space cells x one magnitude band over the unit square
FORECAST_TEXT = (
    "lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask\n"
    "0,1,0,0.5,4,5,6.0,1\n"
    "0,1,0.5,1,4,5,3.0,1\n"
)


def _demo_catalog() -> Catalog:
    rng = np.random.default_rng(42)
    n = 12
    return Catalog(
        times=np.sort(rng.uniform(0.0, 10.0, n)),
        lons=rng.uniform(0.05, 0.95, n),
        lats=rng.uniform(0.05, 0.95, n),
        mags=rng.uniform(4.0, 4.9, n),
        window_days=10.0,
        m0=4.0,
    )


@pytest.fixture()
def paths(tmp_path):
    region = tmp_path / "region.csv"
    region.write_text(REGION_TEXT)
    forecast = tmp_path / "forecast.csv"
    forecast.write_text(FORECAST_TEXT)
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(serialize_catalog(_demo_catalog()))
    params = tmp_path / "params.txt"
    params.write_text("# family = homogeneous\nmu = 1e-4\n")
    return {"dir": tmp_path, "region": str(region), "forecast": str(forecast),
            "catalog": str(catalog), "params": str(params)}


def _read_bytes(out_dir, name):
    with open(os.path.join(out_dir, name), "rb") as fh:
        return fh.read()


def _manifest_entries(out_dir):
    comments, entries = [], {}
    for line in _read_bytes(out_dir, "manifest.txt").decode().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line:
            name, _, digest = line.partition("\t")
            entries[name] = digest
    return comments, entries


# --- simulate + manifest ----------------------------------------------------


def test_simulate_homogeneous_writes_catalog_and_manifest(paths):
    out = str(paths["dir"] / "sim")
    rc = main(["simulate", "--kind", "homogeneous", "--region", paths["region"],
               "--rate", "0.002", "--window", "5", "--seed", "3", "--out", out])
    assert rc == 0
    comments, entries = _manifest_entries(out)
    assert "# command = simulate" in comments
    assert "# seed = 3" in comments
    # the parallelism setting must never appear in an output file
    assert not any(c.startswith("# jobs") for c in comments)
    assert set(entries) == {"catalog.csv"}
    digest = hashlib.sha256(_read_bytes(out, "catalog.csv")).hexdigest()
    assert entries["catalog.csv"] == digest


def test_manifest_covers_every_artifact_and_no_tmp_left(paths):
    out = str(paths["dir"] / "res")
    rc = main(["residuals", "--kind", "superthin", "--catalog", paths["catalog"],
               "--region", paths["region"], "--params", paths["params"],
               "--seed", "1", "--out", out])
    assert rc == 0
    _, entries = _manifest_entries(out)
    on_disk = set(os.listdir(out))
    assert not any(name.endswith(".tmp") for name in on_disk)
    assert on_disk == set(entries) | {"manifest.txt"}


def test_simulate_same_seed_is_byte_identical(paths):
    args = ["simulate", "--kind", "hawkes", "--region", paths["region"],
            "--params", None, "--window", "30", "--seed", "11"]
    params = paths["dir"] / "hk.txt"
    params.write_text("mu = 2e-4\nk = 0.003\nc = 0.05\np = 1.5\n"
                      "a = 1.0\nd = 0.5\nq = 1.8\nm0 = 4.0\n")
    args[args.index(None)] = str(params)
    out1 = str(paths["dir"] / "a")
    out2 = str(paths["dir"] / "b")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert _read_bytes(out1, "catalog.csv") == _read_bytes(out2, "catalog.csv")
    assert _read_bytes(out1, "manifest.txt") == _read_bytes(out2, "manifest.txt")

    out3 = str(paths["dir"] / "c")
    assert main(args[:-1] + ["12", "--out", out3]) == 0
    assert _read_bytes(out1, "catalog.csv") != _read_bytes(out3, "catalog.csv")


def test_simulate_grid_uses_forecast(paths):
    out = str(paths["dir"] / "grid")
    rc = main(["simulate", "--kind", "grid", "--forecast", paths["forecast"],
               "--window", "1.0", "--seed", "5", "--out", out])
    assert rc == 0
    text = _read_bytes(out, "catalog.csv").decode()
    assert text.splitlines()[2] == "time,lon,lat,mag"


# --- consistency tests through the CLI --------------------------------------


def test_test_command_writes_results(paths, capsys):
    out = str(paths["dir"] / "tst")
    rc = main(["test", "--catalog", paths["catalog"],
               "--forecast-a", paths["forecast"], "--window", "10",
               "--n-sim", "150", "--seed", "9", "--out", out])
    assert rc == 0
    lines = _read_bytes(out, "results.csv").decode().splitlines()
    assert lines[0] == "test,statistic,quantile_or_p,n_sim,decision"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["n", "l", "m", "s"]
    decisions = {ln.split(",")[4] for ln in lines[1:]}
    assert decisions <= {"reject", "consistent", "not-applicable"}
    stdout = capsys.readouterr().out
    assert "test n:" in stdout and "test s:" in stdout


def test_test_command_jobs_invariance(paths):
    base = ["test", "--catalog", paths["catalog"],
            "--forecast-a", paths["forecast"], "--window", "10",
            "--tests", "l", "--n-sim", "200", "--seed", "4"]
    out1 = str(paths["dir"] / "j1")
    out2 = str(paths["dir"] / "j3")
    assert main(base + ["--jobs", "1", "--out", out1]) == 0
    assert main(base + ["--jobs", "3", "--out", out2]) == 0
    assert _read_bytes(out1, "results.csv") == _read_bytes(out2, "results.csv")


def test_test_command_sims_and_plots(paths):
    out = str(paths["dir"] / "plots")
    rc = main(["test", "--catalog", paths["catalog"],
               "--forecast-a", paths["forecast"], "--window", "10",
               "--tests", "l,m", "--n-sim", "80", "--seed", "2",
               "--sims-out", "--plots", "--out", out])
    assert rc == 0
    sims = _read_bytes(out, "sims.csv").decode().splitlines()
    assert sims[0] == "test,rep,statistic"
    # 80 rows per simulation-based test
    assert len(sims) == 1 + 80 * 2
    _, entries = _manifest_entries(out)
    assert {"hist_l.svg", "hist_m.svg"} <= set(entries)


def test_pairwise_tests_require_second_forecast(paths):
    rc = main(["test", "--catalog", paths["catalog"],
               "--forecast-a", paths["forecast"], "--window", "10",
               "--tests", "n,t", "--out", str(paths["dir"] / "x")])
    assert rc == 2


def test_unknown_test_name_is_usage_error(paths):
    rc = main(["test", "--catalog", paths["catalog"],
               "--forecast-a", paths["forecast"], "--tests", "n,zz",
               "--out", str(paths["dir"] / "x")])
    assert rc == 2


def test_pairwise_round_trip(paths):
    fb = paths["dir"] / "fb.csv"
    fb.write_text(FORECAST_TEXT.replace("6.0", "5.0"))
    out = str(paths["dir"] / "pw")
    rc = main(["test", "--catalog", paths["catalog"],
               "--forecast-a", paths["forecast"], "--forecast-b", str(fb),
               "--window", "10", "--n-sim", "100", "--seed", "8",
               "--out", out])
    assert rc == 0
    lines = _read_bytes(out, "results.csv").decode().splitlines()
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["n", "l", "m", "s", "r_ab", "r_ba", "t", "w"]


# --- option resolution -------------------------------------------------------


def test_config_file_supplies_options(paths):
    cfgfile = paths["dir"] / "run.cfg"
    cfgfile.write_text("kind = homogeneous\nrate = 0.002\nwindow = 5\n"
                       f"region = {paths['region']}\nseed = 3\n")
    out1 = str(paths["dir"] / "viacfg")
    assert main(["simulate", "--config", str(cfgfile), "--out", out1]) == 0
    out2 = str(paths["dir"] / "viaflags")
    assert main(["simulate", "--kind", "homogeneous", "--region", paths["region"],
                 "--rate", "0.002", "--window", "5", "--seed", "3",
                 "--out", out2]) == 0
    assert _read_bytes(out1, "catalog.csv") == _read_bytes(out2, "catalog.csv")


def test_flags_override_config_file(paths):
    cfgfile = paths["dir"] / "run.cfg"
    cfgfile.write_text("kind = homogeneous\nrate = 0.002\nwindow = 5\n"
                       f"region = {paths['region']}\nseed = 3\n")
    out1 = str(paths["dir"] / "o1")
    assert main(["simulate", "--config", str(cfgfile), "--seed", "21",
                 "--out", out1]) == 0
    out2 = str(paths["dir"] / "o2")
    assert main(["simulate", "--kind", "homogeneous", "--region", paths["region"],
                 "--rate", "0.002", "--window", "5", "--seed", "21",
                 "--out", out2]) == 0
    assert _read_bytes(out1, "catalog.csv") == _read_bytes(out2, "catalog.csv")
    comments, _ = _manifest_entries(out1)
    assert "# seed = 21" in comments


def test_config_file_unknown_key_rejected(paths):
    cfgfile = paths["dir"] / "run.cfg"
    cfgfile.write_text("kind = homogeneous\nratee = 0.002\n")
    rc = main(["simulate", "--config", str(cfgfile),
               "--out", str(paths["dir"] / "x")])
    assert rc == 2


def test_config_file_missing_is_usage_error(paths):
    rc = main(["simulate", "--config", str(paths["dir"] / "absent.cfg"),
               "--out", str(paths["dir"] / "x")])
    assert rc == 2


def test_missing_required_option(paths):
    rc = main(["simulate", "--kind", "homogeneous", "--region", paths["region"],
               "--window", "5", "--out", str(paths["dir"] / "x")])
    assert rc == 2  # no --rate


def test_unknown_kind(paths):
    rc = main(["simulate", "--kind", "fancy", "--region", paths["region"],
               "--out", str(paths["dir"] / "x")])
    assert rc == 2


def test_bad_numeric_flag(paths):
    rc = main(["simulate", "--kind", "homogeneous", "--region", paths["region"],
               "--rate", "fast", "--window", "5", "--out", str(paths["dir"] / "x")])
    assert rc == 2


def test_jobs_must_be_positive(paths):
    rc = main(["test", "--catalog", paths["catalog"],
               "--forecast-a", paths["forecast"], "--jobs", "0",
               "--out", str(paths["dir"] / "x")])
    assert rc == 2


@pytest.mark.parametrize("argv, flag, value", [
    (["residuals", "--kind", "voronoi", "--params", "{params}"], "--n-grid", "0"),
    (["residuals", "--kind", "voronoi", "--params", "{params}"], "--n-grid", "-3"),
    (["errordiag", "--params", "{params}"], "--n-grid", "0"),
    (["kfn", "--forecast", "{forecast}", "--window", "10", "--envelope"], "--n-sim", "0"),
    (["kfn", "--forecast", "{forecast}", "--window", "10", "--envelope"], "--n-sim", "-2"),
    (["fit", "--family", "homogeneous"], "--max-iter", "0"),
    (["fit", "--family", "homogeneous"], "--restarts", "-1"),
])
def test_count_option_below_its_least_is_usage_error(paths, capsys, argv, flag, value):
    out = paths["dir"] / "x"
    rc = main([a.format(**paths) for a in argv] + [
        "--catalog", paths["catalog"], "--region", paths["region"],
        flag, value, "--out", str(out)])
    assert rc == 2
    assert f"{flag} must be at least" in capsys.readouterr().err
    assert not out.exists()


HAWKES_PARAMS = "mu = 2e-4\nk = 0.003\nc = 0.05\np = 1.5\na = 1.0\nd = 0.5\nq = 1.8\nm0 = 4.0\n"
TEST_A = ["test", "--catalog", "{catalog}", "--forecast-a", "{forecast}", "--window", "10"]
FIT = ["fit", "--catalog", "{catalog}", "--region", "{region}", "--family"]
SIM_HOM = ["simulate", "--kind", "homogeneous", "--region", "{region}", "--window", "5"]
SIM_HAWKES = ["simulate", "--kind", "hawkes", "--region", "{region}", "--window", "5",
              "--params", "{hawkes}"]


@pytest.mark.parametrize("argv, flag, value", [
    (TEST_A, "--level", "nan"),
    (TEST_A, "--level", "2"),
    (TEST_A, "--level", "0"),
    (FIT + ["homogeneous"], "--gtol", "-1"),
    (FIT + ["homogeneous"], "--gtol", "nan"),
    (FIT + ["homogeneous"], "--mode", "bogus"),
    (FIT + ["hawkes"], "--mode", "bogus"),
    (["residuals", "--kind", "superthin", "--catalog", "{catalog}", "--region", "{region}",
      "--params", "{params}"], "--k", "nan"),
    (SIM_HOM, "--rate", "nan"),
    (SIM_HOM + ["--rate", "0.002"], "--mag", "inf"),
    (SIM_HAWKES, "--gr-b", "nan"),
    (SIM_HAWKES, "--mag-span", "nan"),
])
def test_option_outside_its_range_is_usage_error(paths, capsys, argv, flag, value):
    hawkes = paths["dir"] / "hawkes.txt"
    hawkes.write_text(HAWKES_PARAMS)
    out = paths["dir"] / "x"
    rc = main([a.format(hawkes=hawkes, **paths) for a in argv] + [
        flag, value, "--out", str(out)])
    assert rc == 2
    assert f"{flag} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["kfn", "errordiag"])
def test_window_without_forecast_is_usage_error(paths, capsys, command):
    # a --params model has no window to span: the option would change nothing
    out = paths["dir"] / "x"
    rc = main([command, "--catalog", paths["catalog"], "--region", paths["region"],
               "--params", paths["params"], "--window", "5", "--out", str(out)])
    assert rc == 2
    assert f"{command} --params does not read --window" in capsys.readouterr().err
    assert not out.exists()


CAT_REGION = ["--catalog", "{catalog}", "--region", "{region}"]


@pytest.mark.parametrize("argv, message", [
    (["residuals", "--kind", "superthin", *CAT_REGION, "--params", "{params}", "--window", "5",
      "--n-grid", "7", "--forecast-b", "nofile.csv"],
     "residuals --kind superthin does not read --forecast-b, --n-grid, --window"),
    (["kfn", *CAT_REGION, "--params", "{params}", "--n-sim", "5"],
     "kfn --params does not read --n-sim"),
    (["simulate", "--kind", "grid", "--forecast", "{forecast}", "--rate", "5", "--gr-b", "2",
      "--region", "nofile.csv"], "simulate --kind grid does not read --gr-b, --rate, --region"),
    (["errordiag", *CAT_REGION, "--forecast", "{forecast}", "--n-grid", "7"],
     "errordiag --forecast does not read --n-grid"),
])
def test_option_its_kind_does_not_read_is_usage_error(paths, capsys, argv, message):
    # each run would ignore the option and still echo it in manifest.txt
    out = paths["dir"] / "x"
    rc = main([a.format(**paths) for a in argv] + ["--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["kfn", *CAT_REGION, "--params", "{params}", "--forecast", "{forecast}"],
     "kfn takes one of --params, --params --envelope, --forecast, --forecast --envelope; "
     "got --params --forecast"),
    (["errordiag", *CAT_REGION], "errordiag takes one of --params, --forecast; got none"),
    (["residuals", "--kind", "bogus", *CAT_REGION], "residuals takes one of --kind thin, "),
])
def test_run_of_no_listed_kind_is_usage_error(paths, capsys, argv, message):
    out = paths["dir"] / "x"
    rc = main([a.format(**paths) for a in argv] + ["--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_option_its_kind_does_not_read_is_usage_error(paths, capsys):
    cfgfile = paths["dir"] / "run.cfg"
    cfgfile.write_text(f"kind = grid\nforecast = {paths['forecast']}\nmag = 4.5\n")
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(paths["dir"] / "x")])
    assert rc == 2
    assert "simulate --kind grid does not read --mag" in capsys.readouterr().err


def test_malformed_catalog_is_data_error(paths):
    bad = paths["dir"] / "bad.csv"
    bad.write_text("time,lon,lat,mag\nnoon,0.5,0.5,4.0\n")
    rc = main(["test", "--catalog", str(bad),
               "--forecast-a", paths["forecast"],
               "--out", str(paths["dir"] / "x")])
    assert rc == 3


@pytest.mark.parametrize("data, argv, message", [
    # a rate numpy's Poisson sampler refuses
    (b"lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask\n0,1,0,1,4,5,1e30,1\n",
     ["simulate", "--kind", "grid", "--forecast", "{file}"], "error: lam value too large"),
    (b"time,lon,lat,mag\n\xff1,0.5,0.5,4.0\n",
     ["tessellate", "--catalog", "{file}", "--region", "{region}"],
     "error: 'utf-8' codec can't decode byte 0xff"),
    (b"# window_days = 10\ntime,lon,lat,mag\n",
     ["tessellate", "--catalog", "{file}", "--region", "{region}"],
     "error: tessellation needs at least one generator"),
    (b"# family = homogeneous\ngarbage\nfoo = 1\nmu = 1e-4\nmu = 2\nk = x\n",
     ["residuals", "--kind", "voronoi", "--catalog", "{catalog}", "--region", "{region}",
      "--params", "{file}"],
     "error: params: line 2: expected 'name = value'"),
    # non-finite parameters, refused by the models rather than written as nan
    (b"# family = homogeneous\nmu = nan\n",
     ["residuals", "--kind", "voronoi", "--catalog", "{catalog}", "--region", "{region}",
      "--params", "{file}"], "error: rate must be finite and non-negative"),
    (b"# family = homogeneous\nmu = nan\n",
     ["residuals", "--kind", "thin", "--catalog", "{catalog}", "--region", "{region}",
      "--params", "{file}"],
     "error: rate must be finite and non-negative"),
    (b"mu = inf\nk = 0.05\nc = 0.01\np = 1.2\na = 1\nd = 1\nq = 1.5\nm0 = 4\n",
     ["residuals", "--kind", "voronoi", "--catalog", "{catalog}", "--region", "{region}",
      "--params", "{file}"], "error: mu must be finite"),
    (b"mu = 0.1\nk = 0.05\nc = 0.01\np = 1.2\na = 1\nd = 1\nq = inf\nm0 = 4\n",
     ["fit", "--family", "hawkes", "--catalog", "{catalog}", "--region", "{region}",
      "--init", "{file}"], "error: q must be finite"),
    (b"mu = 1e-4\nk = 0.05\nc = 0.01\np = 1.2\na = 1\nd = inf\nq = 1.5\nm0 = 4\n",
     ["simulate", "--kind", "hawkes", "--region", "{region}", "--window", "10",
      "--params", "{file}"], "error: d must be finite"),
], ids=["grid-rate-too-large", "catalog-not-utf8", "tessellate-empty-catalog",
        "params-stray-lines", "voronoi-nan-rate", "thin-nan-rate", "voronoi-inf-mu",
        "fit-init-inf-q", "simulate-inf-d"])
def test_any_value_error_of_a_command_is_data_error(paths, capsys, data, argv, message):
    bad = paths["dir"] / "input.csv"
    bad.write_bytes(data)
    out = paths["dir"] / "x"
    rc = main([a.format(file=bad, **paths) for a in argv] + ["--out", str(out)])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["residuals", "--kind", "superthin", "--params", "{params}"],
     "catalog window_days = 0 has no mean rate: superthin needs --k"),
    (["fit", "--family", "homogeneous"], "catalog window_days = 0 has no exposure to fit"),
    (["kfn", "--params", "{params}"], "catalog window_days = 0 has no exposure to weight K by"),
    (["kfn", "--params", "{params}", "--envelope", "--n-sim", "3"],
     "catalog window_days = 0 has no exposure to weight K by"),
    (["errordiag", "--params", "{params}", "--n-grid", "5"],
     "catalog window_days = 0 has no exposure to average the model over"),
    (["residuals", "--kind", "voronoi", "--params", "{params}", "--n-grid", "5"],
     "catalog window_days = 0 has no exposure to integrate the model over"),
    (["residuals", "--kind", "rescale", "--params", "{params}"],
     "catalog window_days = 0 has no exposure to rescale by"),
], ids=["superthin-default-k", "fit-homogeneous", "kfn", "kfn-envelope", "errordiag-model",
        "voronoi", "rescale"])
def test_catalog_without_exposure_is_data_error(paths, capsys, argv, message):
    # three events at time 0 in a window of 0 days
    zero = paths["dir"] / "zero.csv"
    zero.write_text("# window_days = 0\ntime,lon,lat,mag\n"
                    "0,0.5,0.5,4.0\n0,0.2,0.7,4.5\n0,0.8,0.3,5.0\n")
    out = paths["dir"] / "x"
    rc = main([a.format(**paths) for a in argv]
              + ["--catalog", str(zero), "--region", paths["region"], "--out", str(out)])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unknown_params_family_is_data_error(paths):
    bad = paths["dir"] / "bad_params.txt"
    bad.write_text("# family = sparkle\nmu = 1.0\n")
    rc = main(["residuals", "--kind", "thin", "--catalog", paths["catalog"],
               "--region", paths["region"], "--params", str(bad),
               "--out", str(paths["dir"] / "x")])
    assert rc == 3
    assert not (paths["dir"] / "x").exists()


def test_help_and_missing_command(capsys):
    assert main(["--help"]) == 0  # argparse help is translated to exit 0
    assert "usage:" in capsys.readouterr().out
    assert main([]) == 2


# --- residuals, kfn, errordiag, tessellate, fit ------------------------------


def test_residuals_superthin_artifacts(paths):
    out = str(paths["dir"] / "st")
    rc = main(["residuals", "--kind", "superthin", "--catalog", paths["catalog"],
               "--region", paths["region"], "--params", paths["params"],
               "--k", "0.01", "--seed", "6", "--out", out])
    assert rc == 0
    doc = json.loads(_read_bytes(out, "points.geojson"))
    assert doc["type"] == "FeatureCollection"
    tags = {f["properties"]["tag"] for f in doc["features"]}
    assert tags <= {"retained", "superposed"}
    report = _read_bytes(out, "report.txt").decode()
    assert "nominal_rate = 0.01" in report
    assert "quadrat_" in report
    points = _read_bytes(out, "points.csv").decode().splitlines()
    assert points[0] == "time,lon,lat,tag"
    assert len(points) - 1 == len(doc["features"])


def test_residuals_rescale_taus(paths):
    out = str(paths["dir"] / "rt")
    rc = main(["residuals", "--kind", "rescale", "--catalog", paths["catalog"],
               "--region", paths["region"], "--params", paths["params"],
               "--out", out])
    assert rc == 0
    lines = _read_bytes(out, "taus.csv").decode().splitlines()
    assert lines[0].startswith("# total_mass = ")
    assert lines[1] == "tau"
    taus = np.array([float(v) for v in lines[2:]])
    total = float(lines[0].split("=")[1])
    assert taus.size == 12
    assert np.all(np.diff(taus) >= 0)
    assert taus[-1] <= total


HAWKES_TEXT = ("# family = hawkes\nmu = 2e-4\nk = 0.003\nc = 0.05\np = 1.5\n"
               "a = 1.0\nd = 0.5\nq = 1.8\nm0 = 4.0\n")


def test_residuals_rescale_hawkes_closed_form(paths):
    params = paths["dir"] / "hawkes.txt"
    params.write_text(HAWKES_TEXT)
    out = str(paths["dir"] / "rth")
    rc = main(["residuals", "--kind", "rescale", "--catalog", paths["catalog"],
               "--region", paths["region"], "--params", str(params),
               "--out", out])
    assert rc == 0
    lines = _read_bytes(out, "taus.csv").decode().splitlines()
    total = float(lines[0].split("=")[1])
    taus = np.array([float(v) for v in lines[2:]])
    c = _demo_catalog()
    area = Region([(0, 0), (1, 0), (1, 1), (0, 1)]).area_km2
    kappa = 0.003 * np.exp(1.0 * (c.mags - 4.0)) * math.pi * 0.5 ** -0.8 / 0.8
    tmass = (0.05 ** -0.5 - (10.0 - c.times + 0.05) ** -0.5) / 0.5
    exact = 2e-4 * area * 10.0 + float(np.sum(kappa * tmass))
    assert total == pytest.approx(exact, rel=1e-12)
    assert taus.size == c.n and np.all(np.diff(taus) > 0)
    assert 0 < taus[0] and taus[-1] < total


def test_residuals_superpose_refusal_exits_3(paths, capsys):
    params = paths["dir"] / "hawkes.txt"
    # a narrow, fast kernel puts the certified sup far above any sane count
    params.write_text(HAWKES_TEXT.replace("c = 0.05", "c = 0.001")
                      .replace("d = 0.5", "d = 0.01"))
    rc = main(["residuals", "--kind", "superpose", "--catalog", paths["catalog"],
               "--region", paths["region"], "--params", str(params),
               "--out", str(paths["dir"] / "sp")])
    assert rc == 3
    assert "above the cap" in capsys.readouterr().err


def test_residuals_superpose_refusal_names_bound_and_count(paths, capsys):
    from eqassess.intensity import HawkesIntensity, parse_hawkes_params
    text = HAWKES_TEXT.replace("c = 0.05", "c = 0.001").replace("d = 0.5", "d = 0.01")
    params = paths["dir"] / "hawkes.txt"
    params.write_text(text)
    rc = main(["residuals", "--kind", "superpose", "--catalog", paths["catalog"],
               "--region", paths["region"], "--params", str(params),
               "--out", str(paths["dir"] / "sp")])
    assert rc == 3
    err = capsys.readouterr().err
    region = Region([(0, 0), (1, 0), (1, 1), (0, 1)])
    _, sup = HawkesIntensity(parse_hawkes_params(text), _demo_catalog()).bounds(region, 10.0)
    expected = sup * region.area_km2 * 10.0
    assert expected > 1e6
    assert f"C = {sup!r}" in err
    assert f"C*|A|*T = {expected:.6g} expected superposed points" in err
    assert "Poisson(C)" in err and "--kind superthin" in err


def test_tessellate_writes_one_cell_per_distinct_epicentre(paths, capsys):
    n = 1003
    lons, lats = np.full(n, 0.5), np.full(n, 0.5)
    lons[[10, 500]], lats[[10, 500]] = [0.2, 0.8], [0.3, 0.9]
    cat = Catalog(np.linspace(0.0, 9.0, n), lons, lats, np.full(n, 4.5),
                  window_days=10.0, m0=4.0)
    catalog = paths["dir"] / "stack.csv"
    catalog.write_text(serialize_catalog(cat))
    out = paths["dir"] / "tess"
    rc = main(["tessellate", "--catalog", str(catalog), "--region", paths["region"],
               "--out", str(out)])
    assert rc == 0
    assert "tessellate: cells=3 " in capsys.readouterr().out
    rows = _read_bytes(out, "areas.csv").decode().splitlines()[2:]
    assert [r.split(",")[1:3] for r in rows] == [["0.5", "0.5"], ["0.2", "0.3"], ["0.8", "0.9"]]


def test_residuals_pixel_artifacts(paths):
    out = str(paths["dir"] / "px")
    rc = main(["residuals", "--kind", "pixel", "--catalog", paths["catalog"],
               "--region", paths["region"], "--forecast-a", paths["forecast"],
               "--window", "10", "--out", out])
    assert rc == 0
    _, entries = _manifest_entries(out)
    assert {"raw.csv", "raw.geojson", "raw.svg",
            "pearson.csv", "pearson.geojson", "pearson.svg"} <= set(entries)


def test_residuals_voronoi_library_equivalence(paths):
    out = str(paths["dir"] / "vor")
    rc = main(["tessellate", "--catalog", paths["catalog"],
               "--region", paths["region"], "--out", out])
    assert rc == 0
    lines = _read_bytes(out, "areas.csv").decode().splitlines()
    assert lines[1] == "cell_id,gen_lon,gen_lat,area_km2"
    got = np.array([float(ln.split(",")[3]) for ln in lines[2:]])

    c = _demo_catalog()
    region = Region([(0, 0), (1, 0), (1, 1), (0, 1)])
    tess = voronoi_tessellation(c.lons, c.lats, region)
    # repr() round-trips floats exactly, so the CSV must match bit for bit
    assert got.size == tess.n_cells
    assert np.array_equal(got, tess.areas_km2)

    doc = json.loads(_read_bytes(out, "cells.geojson"))
    assert len(doc["features"]) == tess.n_cells
    ring = doc["features"][0]["geometry"]["coordinates"][0]
    assert ring[0] == ring[-1]


def test_kfn_needs_exactly_one_model_source(paths):
    rc = main(["kfn", "--catalog", paths["catalog"], "--region", paths["region"],
               "--out", str(paths["dir"] / "x")])
    assert rc == 2
    rc = main(["kfn", "--catalog", paths["catalog"], "--region", paths["region"],
               "--params", paths["params"], "--forecast", paths["forecast"],
               "--out", str(paths["dir"] / "x")])
    assert rc == 2


def test_kfn_envelope_deterministic(paths):
    base = ["kfn", "--catalog", paths["catalog"], "--region", paths["region"],
            "--forecast", paths["forecast"], "--window", "10",
            "--envelope", "--n-sim", "49", "--seed", "13"]
    out1 = str(paths["dir"] / "k1")
    out2 = str(paths["dir"] / "k2")
    assert main(base + ["--out", out1]) == 0
    assert main(base + ["--out", out2]) == 0
    assert _read_bytes(out1, "kfunction.csv") == _read_bytes(out2, "kfunction.csv")
    header = _read_bytes(out1, "kfunction.csv").decode().splitlines()[0]
    assert header.startswith("lag_km,k_value,reference")


def test_errordiag_artifacts(paths):
    out = str(paths["dir"] / "ed")
    rc = main(["errordiag", "--catalog", paths["catalog"],
               "--region", paths["region"], "--forecast", paths["forecast"],
               "--window", "10", "--out", out])
    assert rc == 0
    lines = _read_bytes(out, "errordiag.csv").decode().splitlines()
    assert lines[0] == "threshold,alarm_fraction,miss_fraction"
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[1]) == 0.0 and float(first[2]) == 1.0
    assert float(last[1]) == 1.0 and float(last[2]) == 0.0
    svg = _read_bytes(out, "errordiag.svg").decode()
    assert "<svg" in svg


def test_fit_homogeneous_matches_closed_form(paths, capsys):
    out = str(paths["dir"] / "fit")
    rc = main(["fit", "--family", "homogeneous", "--catalog", paths["catalog"],
               "--region", paths["region"], "--out", out])
    assert rc == 0
    text = _read_bytes(out, "params.txt").decode()
    assert text.splitlines()[0] == "# family = homogeneous"
    mu = float([ln for ln in text.splitlines()
                if ln.startswith("mu = ")][0].split("=")[1])
    region = Region([(0, 0), (1, 0), (1, 1), (0, 1)])
    expect = 12 / (region.area_km2 * 10.0)
    assert np.isclose(mu, expect, rtol=1e-6)
    assert "converged=true" in capsys.readouterr().out


def test_fit_takes_no_n_grid(paths):
    # neither fit family integrates on a lattice, so the option is gone
    rc = main(["fit", "--family", "homogeneous", "--catalog", paths["catalog"],
               "--region", paths["region"], "--n-grid", "50",
               "--out", str(paths["dir"] / "fit")])
    assert rc == 2


@pytest.mark.parametrize("flag, value", [("--init", "nofile.txt"), ("--mode", "quadrature")])
def test_fit_homogeneous_takes_no_hawkes_option(paths, capsys, flag, value):
    # the homogeneous fit has its own start and no mode: the option would
    # change nothing and still be echoed in manifest.txt
    out = paths["dir"] / "fit"
    rc = main(["fit", "--family", "homogeneous", "--catalog", paths["catalog"],
               "--region", paths["region"], flag, value, "--out", str(out)])
    assert rc == 2
    assert f"fit --family homogeneous does not read {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_parser_shared_across_calls_answers_as_fresh_processes(paths, capsys):
    """main builds its argparse tree once per process; a usage error and
    then a valid call in one process give the exit codes and the stderr of
    two separate processes."""
    bad = ["tessellate", "--catalog", paths["catalog"], "--bogus", "1"]
    good = ["tessellate", "--catalog", paths["catalog"], "--region", paths["region"]]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from eqassess.cli import main; sys.exit(main(sys.argv[1:]))"
    codes = []
    for argv, out in [(bad, "bad"), (good, "good")]:
        rc = main(argv + ["--out", str(paths["dir"] / out)])
        err = capsys.readouterr().err
        proc = subprocess.run([sys.executable, "-c", code, *argv,
                               "--out", str(paths["dir"] / (out + "_process"))],
                              env=env, capture_output=True, text=True)
        assert (rc, err) == (proc.returncode, proc.stderr)
        codes.append(rc)
    assert codes == [2, 0]


def test_import_leaves_scipy_stats_optimize_and_spatial_unloaded():
    """scipy.stats costs every process about 0.5 s at start-up,
    scipy.optimize about 0.1 s and scipy.spatial about 0.15 s; nothing
    loads the optimizer, and only tessellations and K pair counts the
    spatial trees."""
    code = ("import sys, eqassess.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.spatial') "
            "if m in sys.modules))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# the eqassess submodules that `import eqassess.cli` loads, and those each
# command loads besides; a top-level import added to cli.py, or a command
# that no longer needs a module of its row, fails the budget test
CLI_MODULES = {"catalog", "cli", "forecast", "rng"}
COMMAND_MODULES = {
    "fit": {"intensity"},
    "simulate": {"intensity", "simulate"},
    "test": {"consistency"},
    "test --plots": {"consistency", "render"},
    "residuals": {"intensity", "render", "residuals", "simulate"},
    "kfn": {"intensity", "render", "simulate", "summaries"},
    "errordiag": {"intensity", "render", "simulate", "summaries"},
    "tessellate": {"intensity", "residuals", "simulate"},
}


def _command_argv(paths, command):
    p = paths
    return {
        "fit": ["fit", "--family", "homogeneous", "--catalog", p["catalog"],
                "--region", p["region"]],
        "simulate": ["simulate", "--kind", "homogeneous", "--region", p["region"],
                     "--rate", "0.002", "--window", "5"],
        "test": ["test", "--catalog", p["catalog"], "--forecast-a", p["forecast"],
                 "--forecast-b", p["forecast"], "--window", "10", "--n-sim", "20"],
        "test --plots": ["test", "--catalog", p["catalog"], "--forecast-a", p["forecast"],
                         "--window", "10", "--n-sim", "20", "--plots"],
        "residuals": ["residuals", "--kind", "thin", "--catalog", p["catalog"],
                      "--region", p["region"], "--params", p["params"]],
        "kfn": ["kfn", "--catalog", p["catalog"], "--region", p["region"],
                "--params", p["params"]],
        "errordiag": ["errordiag", "--catalog", p["catalog"], "--region", p["region"],
                      "--forecast", p["forecast"], "--window", "10"],
        "tessellate": ["tessellate", "--catalog", p["catalog"], "--region", p["region"]],
    }[command]


def _loaded_submodules(code, argv=()):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += ("; print(*sorted(m.partition('.')[2] for m in sys.modules "
             "if m.startswith('eqassess.')))")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.splitlines()[-1].split()


def test_cli_import_loads_only_the_shared_modules():
    assert _loaded_submodules("import sys, eqassess.cli") == sorted(CLI_MODULES)


def test_table_names_every_command():
    from eqassess.cli import _COMMANDS
    assert {key.split()[0] for key in COMMAND_MODULES} == set(_COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_modules(paths, command):
    argv = _command_argv(paths, command) + ["--out", str(paths["dir"] / "out")]
    code = "import sys; from eqassess.cli import main; assert main(sys.argv[1:]) == 0"
    assert _loaded_submodules(code, argv) == sorted(CLI_MODULES | COMMAND_MODULES[command])


# every public name of the package, as its eagerly importing __init__.py
# exported them before the submodules loaded on first use
PUBLIC_NAMES = """
BinCounts BinGrid Catalog CellResidualSet ErrorDiagram Event FORECAST_HEADER FitResult
GridIntensity GriddedForecast HawkesIntensity HawkesParams HomogeneityResult
HomogeneousIntensity KFunctionCurve PairwiseResult Region RegionLattice RescaledTimes
ResidualPointSet RngStream TestResult VoronoiTessellation bin_counts branching_ratio
catalog_log_likelihood cell_residuals_to_csv cell_residuals_to_geojson central_gradient
deviance_residuals empty_catalog error_diagram error_diagram_to_csv expected_total
filter_catalog fit_mle gutenberg_richter_magnitudes
homogeneity_test joint_log_likelihood k_curve_to_csv km_distance l_test
log_likelihood m_test marginal_magnitude marginal_space mean_branching_ratio
mean_gr_magnitude n_test paradox_fixture parse_catalog parse_forecast
parse_hawkes_params parse_region pixel_residuals pmap poisson_log_pmf r_test
radial_trigger_cdf region_lattice render_error_diagram render_histogram render_k_curve
render_map render_point_map rescale_times results_to_csv s_test scale_to_count
serialize_catalog serialize_forecast serialize_hawkes_params serialize_region
simulate_hawkes simulate_homogeneous simulate_inhomogeneous simulate_poisson_grid
sparse_log_likelihood student_t_statistic super_thin superpose_residuals t_test_pairwise
temporal_trigger_cdf thin_residuals voronoi_residuals voronoi_tessellation
w_test_pairwise weighted_k wilcoxon_signed_rank
""".split()


def test_every_public_name_resolves_to_its_submodule():
    import importlib

    import eqassess
    assert sorted(eqassess.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(eqassess))
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"eqassess.{eqassess._MODULE_OF[name]}")
        assert getattr(eqassess, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        eqassess.no_such_name


def test_two_forecast_test_builds_three_grids(paths, monkeypatch):
    """Forecast B takes A's grid, and the S and M marginals of A and B
    share one grid each: the grids of A, its space and its magnitude
    marginals, where each forecast used to build its own."""
    from eqassess.catalog import BinGrid
    built = []
    init = BinGrid.__post_init__

    def counting(self):
        built.append(len(self.boxes))
        init(self)

    monkeypatch.setattr(BinGrid, "__post_init__", counting)
    fb = paths["dir"] / "fb.csv"
    fb.write_text(FORECAST_TEXT.replace("6.0", "5.0"))
    rc = main(["test", "--catalog", paths["catalog"], "--forecast-a", paths["forecast"],
               "--forecast-b", str(fb), "--tests", "n,l,m,s,r,t,w", "--window", "10",
               "--n-sim", "20", "--out", str(paths["dir"] / "three")])
    assert rc == 0
    assert built == [2, 1, 2]


@pytest.mark.parametrize("window", ["nan", "inf", "-inf", "0", "-1"])
def test_window_that_is_not_positive_and_finite_is_data_error(paths, capsys, window):
    rc = main(["test", "--catalog", paths["catalog"], "--forecast-a", paths["forecast"],
               f"--window={window}", "--out", str(paths["dir"] / "x")])
    assert rc == 3
    assert "forecast window must be positive and finite" in capsys.readouterr().err


def test_catalog_with_a_nan_window_is_data_error(paths, capsys):
    bad = paths["dir"] / "nan_window.csv"
    text = _read_bytes(paths["dir"], "catalog.csv").decode()
    bad.write_text("\n".join("# window_days = nan" if ln.startswith("# window_days")
                             else ln for ln in text.splitlines()) + "\n")
    rc = main(["residuals", "--kind", "superthin", "--catalog", str(bad),
               "--region", paths["region"], "--params", paths["params"],
               "--out", str(paths["dir"] / "x")])
    assert rc == 3
    assert "non-finite window_days value in catalog" in capsys.readouterr().err


def test_catalog_with_a_negative_window_is_data_error(paths, capsys):
    bad = paths["dir"] / "negative_window.csv"
    bad.write_text("# window_days = -3\ntime,lon,lat,mag\n")
    out = paths["dir"] / "x"
    rc = main(["fit", "--family", "homogeneous", "--catalog", str(bad),
               "--region", paths["region"], "--out", str(out)])
    assert rc == 3
    assert "negative catalog window: window_days = -3.0" in capsys.readouterr().err
    assert not out.exists()


def test_kfn_envelope_zero_rate_cell_is_data_error(paths, capsys):
    # the south half has rate 0; every observed event lies in the north half
    zero = paths["dir"] / "zero_cell.csv"
    zero.write_text(FORECAST_TEXT.replace("6.0,1", "0.0,1"))
    cat = paths["dir"] / "north.csv"
    c = _demo_catalog()
    cat.write_text(serialize_catalog(Catalog(c.times, c.lons, 0.55 + 0.4 * c.lats,
                                             c.mags, c.window_days, c.m0)))
    base = ["kfn", "--catalog", str(cat), "--region", paths["region"],
            "--forecast", str(zero), "--window", "10"]
    assert main(base + ["--out", str(paths["dir"] / "plain")]) == 0
    rc = main(base + ["--envelope", "--n-sim", "9", "--out", str(paths["dir"] / "x")])
    assert rc == 3
    assert "model rate is zero at a simulated envelope point" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["homogeneous", "hawkes"])
def test_fit_leaves_scipy_optimize_unloaded(paths, family):
    """The Newton fit needs numpy alone."""
    code = ("import sys; from eqassess.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, 'scipy.optimize' in sys.modules)")
    argv = ["fit", "--family", family, "--catalog", paths["catalog"], "--region",
            paths["region"], "--out", str(paths["dir"] / "fit")]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split()[-2:] == ["0", "False"]


def test_fit_writes_the_standard_error(paths):
    # the homogeneous information at the optimum is the count, 12
    out = str(paths["dir"] / "fit")
    assert main(["fit", "--family", "homogeneous", "--catalog", paths["catalog"],
                 "--region", paths["region"], "--out", out]) == 0
    lines = _read_bytes(out, "params.txt").decode().splitlines()
    assert [ln for ln in lines if ln.startswith("# se")] == [f"# se(ln mu) = {12 ** -0.5:.6g}"]
