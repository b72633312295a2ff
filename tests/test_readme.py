"""The README's python blocks run as written, in order, in one namespace."""

import pathlib
import re

import numpy as np

from eqassess import BinGrid, GriddedForecast, serialize_forecast

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 2
    # a small 30-day forecast over the extent the README's region names
    grid = BinGrid.regular(np.linspace(-118.0, -117.0, 6), np.linspace(34.0, 35.0, 6),
                           np.array([4.0, 5.0, 6.0]))
    rates = np.tile([1.0, 0.1], 25) * np.repeat(np.linspace(0.5, 1.5, 25), 2)
    (tmp_path / "forecast.csv").write_text(
        serialize_forecast(GriddedForecast(grid, rates, 30.0)))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "TestResult(name='l'" in capsys.readouterr().out
    assert set(namespace["resid"].tags) <= {"retained", "superposed"}


def test_readme_outputs_name_every_artifact(tmp_path):
    """Every file the seven commands write in acceptance criterion 9's runs
    is named in the README's Outputs subsection."""
    from eqassess import Catalog, serialize_catalog
    from eqassess.cli import main

    text = README.read_text()
    section = text[text.index("#### Outputs"):]
    section = section[:section.index("\n## ")]
    region = tmp_path / "region.csv"
    region.write_text("lon,lat\n0,0\n1,0\n1,1\n0,1\n")
    gen = np.random.default_rng(99)
    cat = Catalog(np.sort(gen.uniform(0, 10, 15)), gen.uniform(0.1, 0.9, 15),
                  gen.uniform(0.1, 0.9, 15), gen.uniform(4.0, 5.0, 15), 10.0, 4.0)
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(serialize_catalog(cat))
    forecasts = []
    for name, rates in (("a", (8.0, 7.0)), ("b", (5.0, 9.0))):
        forecasts.append(tmp_path / f"forecast_{name}.csv")
        forecasts[-1].write_text(
            "lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask\n"
            f"0,1,0,0.5,4,5,{rates[0]},1\n0,1,0.5,1,4,5,{rates[1]},1\n")
    params = tmp_path / "hawkes.txt"
    params.write_text("mu = 2e-4\nk = 0.003\nc = 0.05\np = 1.5\n"
                      "a = 1.0\nd = 0.5\nq = 1.8\nm0 = 4.0\n")
    cat_region = ["--catalog", str(catalog), "--region", str(region)]
    commands = [
        ["fit", *cat_region, "--family", "hawkes", "--restarts", "1", "--max-iter", "40"],
        ["simulate", "--kind", "hawkes", "--region", str(region), "--params", str(params),
         "--window", "30"],
        ["test", "--catalog", str(catalog), "--forecast-a", str(forecasts[0]),
         "--forecast-b", str(forecasts[1]), "--window", "10", "--n-sim", "100",
         "--sims-out"],
        ["residuals", "--kind", "superthin", *cat_region, "--params", str(params)],
        ["kfn", *cat_region, "--forecast", str(forecasts[0]), "--window", "10",
         "--envelope", "--n-sim", "29"],
        ["errordiag", *cat_region, "--forecast", str(forecasts[0]), "--window", "10"],
        ["tessellate", *cat_region],
    ]
    written = set()
    for argv in commands:
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 0
        written |= {p.name for p in out.iterdir()}
    assert len(written) == 15
    assert sorted(name for name in written if f"`{name}`" not in section) == []
