"""No module of the package imports a name it never uses, no function
leaves a parameter unread, and no function, class or method is defined
that nothing in the package loads or exports.

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


# defined in src/ for callers outside it, each with its reason
UNLOADED_BY_DESIGN = {
    "Region.rectangle": "library constructor",
    "BinGrid.regular": "library constructor",
    "hawkes_objective": "a bench/tracing.py target",
    "ResidualPointSet.retained_mask": "a method of a public result type",
}


def definitions(tree) -> list:
    """(qualified name, name) of every function, class and method defined
    in the tree, nested ones included, methods as Class.method."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child.name))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def unloaded_definitions(sources: dict, exported) -> list:
    """Definitions in sources (file name -> text) whose name no expression
    in any of them loads, as a bare name or an attribute, and that are not
    exported or dunder methods the interpreter calls."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loaded = {n.id if isinstance(n, ast.Name) else n.attr
              for tree in trees.values() for n in ast.walk(tree)
              if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    return [f"{name}: {qual}" for name, tree in trees.items()
            for qual, bare in definitions(tree)
            if bare not in loaded and bare not in exported
            and not (bare.startswith("__") and bare.endswith("__"))]


def test_every_definition_is_loaded_or_exported():
    from eqassess import _MODULE_OF
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    found = unloaded_definitions(sources, _MODULE_OF)
    assert sorted(q.split(": ")[1] for q in found) == sorted(UNLOADED_BY_DESIGN)


def test_detector_flags_an_unloaded_definition():
    sources = {
        "a.py": "class K:\n    def __init__(self):\n        self.m = 1\n"
                "    def used(self):\n        return self.m\n"
                "    def dead(self):\n        return 0\n"
                "def helper():\n    def inner():\n        return 1\n    return 2\n"
                "def public():\n    return K().used()\n",
        "b.py": "from a import helper\nx = helper\n",
    }
    assert unloaded_definitions(sources, {"public"}) == ["a.py: K.dead", "a.py: helper.inner"]
