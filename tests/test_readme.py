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
