"""No module of the package imports a name it never uses, and no
function leaves a parameter unread.

The package has no linter; this parses each module with ast instead.
__init__.py is left out of the import check, because every name it
imports is an export.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "eqassess"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the model protocol fixes these signatures, whether or not a model reads
# every argument (a time-independent rate ignores times)
PROTOCOL_METHODS = {"rate_at", "bounds"}


def unused_imports(source: str) -> list:
    """Names bound by import statements anywhere in the module that no
    expression, annotation or string annotation ever loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations such as -> "Region"
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from typing import Callable, NamedTuple\n"
              "def f(x: Callable) -> 'NamedTuple':\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["line 2: math"]


def unread_parameters(source: str) -> list:
    """Parameters of functions and lambdas, other than self and cls and
    those of PROTOCOL_METHODS, that the function's body never loads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name in PROTOCOL_METHODS:
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, [a.vararg, a.kwarg])]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"line {node.lineno}: {name}({p.arg})" for p in params
                  if p.arg not in ("self", "cls", *read)]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_detector_flags_an_unread_parameter():
    source = ("def f(self, x, *rest, jobs=1, **kw):\n    return x + kw['y']\n"
              "class M:\n    def rate_at(self, lons, lats, times=None):\n        return lons\n"
              "    def g(self, t):\n        def inner():\n            return t\n"
              "        return inner\n"
              "h = lambda a, b: a\n")
    assert unread_parameters(source) == ["line 1: f(jobs)", "line 1: f(rest)",
                                         "line 10: <lambda>(b)"]
