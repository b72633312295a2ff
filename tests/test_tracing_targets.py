"""The benchmark's span tracer (bench/tracing.py) rebinds eqassess names
given as strings; a rename or removal in src/ would break `--trace 1` only
at run time. Loaded by path, without calling install()."""

import importlib
import importlib.util
import os

import pytest

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    missing = []
    for module, path, _ in tracing.TARGETS:
        owner = importlib.import_module(f"eqassess.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = callable(getattr(owner, path, None))
        if not found:
            missing.append(f"{module}.{path}")
    assert missing == []


def test_traced_modules_and_objective_exist(tracing):
    for module in tracing.MODULES:
        importlib.import_module(f"eqassess.{module}")
    assert callable(importlib.import_module("eqassess.intensity").hawkes_objective)
