"""The package namespace (each public name declared once), six lints, and
the package names the benchmark's tracer reads."""

import ast
import importlib
from pathlib import Path

import tracekit
from tracekit import linop
from tracekit.linop import LinearOperator
from tracekit.matfunc import LanczosFunctionOperator, PowerOperator

import oracles

MODULES = ("linop", "estimators", "matfunc", "synth", "graph", "bench")

# What a LinearOperator subclass may define again: everything else of the base
# (the query path, the counter, the shape) is the one shared implementation.
_OPERATOR_HOOKS = {"__init__", "_apply_block", "_apply_vec"}


def test_package_all_is_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"tracekit.{name}") for name in MODULES]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is exported twice"
    assert sorted(tracekit.__all__) == sorted([*declared, "__version__"])
    for module in modules:
        for name in module.__all__:
            assert getattr(tracekit, name) is getattr(module, name)


def _truncating_int_calls(source: str) -> list[str]:
    """Each `int(p)` call on a function's own parameter, and each `int(a.x)`."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        params = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "int" and call.args):
                continue
            arg = call.args[0]
            if (isinstance(arg, ast.Name) and arg.id in params) or (
                isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
            ):
                found.append(f"line {call.lineno}: {ast.unparse(call)}")
    return found


def test_no_size_argument_is_truncated_with_int():
    # int(2.9) == 2 silently; sizes go through linop._size, which raises.
    assert _truncating_int_calls("def f(n):\n    return int(n)\n")
    assert _truncating_int_calls("def f(self):\n    return int(self.dim)\n")
    assert _truncating_int_calls("def f(rows):\n    return [int(s.m) for s in rows]\n")
    assert not _truncating_int_calls("def f(n):\n    return int(n.sum())\n")
    package = Path(tracekit.__file__).parent
    offenders = {
        path.name: calls
        for path in sorted(package.glob("*.py"))
        if (calls := _truncating_int_calls(path.read_text()))
    }
    assert not offenders, offenders


def _unused_imports(source: str) -> list[str]:
    """Each module-level imported name that the module never reads.

    ``from __future__`` imports and names listed in ``__all__`` are exempt.
    """
    tree = ast.parse(source)
    exported = {
        node.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt.value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read | exported:
                    found.append(f"line {stmt.lineno}: {name}")
    return found


def test_no_module_level_import_goes_unused():
    # A leftover import (say, `dataclass` after the last dataclass goes) fails.
    assert _unused_imports("import os\n") == ["line 1: os"]
    assert _unused_imports("from dataclasses import dataclass\n__all__ = ['f']\n")
    assert _unused_imports("import numpy as np\nnp = 1\n") == ["line 1: np"]
    assert not _unused_imports("from __future__ import annotations\n")
    assert not _unused_imports("import scipy.linalg\nscipy.linalg.eigh\n")
    assert not _unused_imports("from m import f\n__all__ = ['f']\n")
    assert not _unused_imports("from m import *\n")
    package = Path(tracekit.__file__).parent
    offenders = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert not offenders, offenders


def _package_sources() -> dict[str, str]:
    """Each package module's dotted name mapped to its text."""
    package = Path(tracekit.__file__).parent
    return {
        "tracekit" if path.stem == "__init__" else f"tracekit.{path.stem}": path.read_text()
        for path in sorted(package.glob("*.py"))
    }


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Each module-level private name that no module of ``sources`` reads.

    ``sources`` maps a dotted module name to its text.  A top-level
    ``_name = ...``, ``def _name`` or ``class _Name`` is read by a load in its
    own module or by a ``from <its module> import _name`` in any of them.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {
        (stmt.module, alias.name)
        for tree in trees.values()
        for stmt in ast.walk(tree)
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    }
    found = []
    for module, tree in trees.items():
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if (name.startswith("_") and not name.startswith("__")
                        and name not in read and (module, name) not in imported):
                    found.append(f"{module} line {stmt.lineno}: {name}")
    return found


def test_no_module_level_private_name_goes_unread():
    # A leftover helper or constant (say, a regex after its parser goes) fails.
    assert _unread_private_names({"m": "_X = 1\n"}) == ["m line 1: _X"]
    assert _unread_private_names({"m": "_a, _b = 1, 2\n_a\n"}) == ["m line 1: _b"]
    assert _unread_private_names({"m": "def _f():\n    pass\n"}) == ["m line 1: _f"]
    assert _unread_private_names({"m": "class _C:\n    pass\n"}) == ["m line 1: _C"]
    assert _unread_private_names({"m": "_X = 1\n", "n": "from o import _X\n"})
    assert not _unread_private_names({"m": "_X: int = 1\nprint(_X)\n"})
    assert not _unread_private_names({"m": "_X = 1\n", "n": "from m import _X\n"})
    assert not _unread_private_names({"m": "__version__ = '1'\nX = 1\n"})
    unread = _unread_private_names(_package_sources())
    assert not unread, unread


# The band rule's threshold and pool, which only linop._run_bands reads.
_BAND_RULE = {"_SPLIT_MIN", "_band_pool"}


def _band_rule_readers(sources: dict[str, str]) -> list[str]:
    """Each read or import of a ``_BAND_RULE`` name in ``sources`` (a dotted
    module name mapped to its text) outside ``tracekit.linop._run_bands``."""
    found = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if module == "tracekit.linop" and getattr(stmt, "name", None) == "_run_bands":
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                found += [f"{module} line {node.lineno}: {n}" for n in names if n in _BAND_RULE]
    return found


def test_the_band_rule_is_read_in_one_place():
    # A kernel that tests the split itself, or reaches for the pool, fails:
    # _run_bands alone decides whether a query runs in one band.
    assert _band_rule_readers(
        {"tracekit.graph": "from tracekit.linop import _SPLIT_MIN\n"}
    ) == ["tracekit.graph line 1: _SPLIT_MIN"]
    assert _band_rule_readers({"tracekit.graph": "linop._band_pool()\n"})
    assert _band_rule_readers({"tracekit.linop": "def f(w):\n    return w < _SPLIT_MIN\n"})
    assert not _band_rule_readers({
        "tracekit.linop": "_SPLIT_MIN = 1\ndef _run_bands(w):\n    return w < _SPLIT_MIN\n"
    })
    readers = _band_rule_readers(_package_sources())
    assert not readers, readers


def _redefined_base_attributes(cls: type) -> set[str]:
    """The LinearOperator methods and properties that ``cls`` itself redefines."""
    base = {
        name for name, value in vars(LinearOperator).items()
        if callable(value) or isinstance(value, property)
    }
    return (base & set(vars(cls))) - _OPERATOR_HOOKS


def test_operators_implement_one_kernel():
    # Each operator supplies _apply_block (and __init__, and _apply_vec
    # where its block kernel rounds differently from one vector's); matvec,
    # matmat and the checked, counted query path are the base's alone.  The
    # test instrument RecordingOperator follows the same rule.
    class Detour(LinearOperator):
        def _apply_block(self, X):
            return X

        def matvec(self, x):
            return x

    assert _redefined_base_attributes(Detour) == {"matvec"}
    modules = [importlib.import_module(f"tracekit.{name}") for name in MODULES]
    operators = [
        obj
        for module in [*modules, oracles]
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, LinearOperator)
        and obj.__module__ == module.__name__ and obj is not LinearOperator
    ]
    assert {cls.__name__ for cls in operators} >= {
        "DenseOperator", "DiagonalOperator", "WrappedOperator",
        "LanczosFunctionOperator", "PowerOperator", "AdjacencyOperator",
        "RecordingOperator",
    }
    offenders = {
        cls.__qualname__: sorted(names)
        for cls in operators
        if (names := _redefined_base_attributes(cls))
    }
    assert not offenders, offenders


def _bypassing_returns(source: str) -> list[str]:
    """Each ``return`` in ``LinearOperator.matvec`` or ``.matmat`` whose value
    is not a ``self._query(...)`` result (or a subscript of one)."""
    cls = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == "LinearOperator"
    )
    methods = [
        node for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in ("matvec", "matmat")
    ]
    assert sorted(m.name for m in methods) == ["matmat", "matvec"]
    found = []
    for method in methods:
        for node in ast.walk(method):
            if not isinstance(node, ast.Return):
                continue
            value = node.value
            while isinstance(value, ast.Subscript):
                value = value.value
            if not (isinstance(value, ast.Call) and ast.unparse(value.func) == "self._query"):
                found.append(f"{method.name} line {node.lineno}: {ast.unparse(node)}")
    return found


def test_matvec_and_matmat_return_only_query_results():
    # Every public query goes through the checked, counted query path; no
    # special case (a zero-width block, say) returns around it.
    detour = (
        "class LinearOperator:\n"
        "    def matvec(self, x):\n"
        "        return self._query(x[:, None])[:, 0]\n"
        "    def matmat(self, X):\n"
        "        if X.shape[1] == 0:\n"
        "            return np.zeros((self._dim, 0))\n"
        "        return self._query(X)\n"
    )
    assert _bypassing_returns(detour) == ["matmat line 6: return np.zeros((self._dim, 0))"]
    assert _bypassing_returns(Path(linop.__file__).read_text()) == []


# Names perfbench/tracing.py still lists although the package deleted them.
# They may be missing, not must: dropping them from the benchmark keeps the
# test below green.
_PERFBENCH_STALE = {
    "graph.AdjacencyOperator._apply_vec",
    "matfunc.lanczos_decompose",
}


def _traceable(dotted: str) -> bool:
    """Whether perfbench's Tracer wraps ``module.function`` or
    ``module.Class.method``: a public name defined in its module, and a
    method the class defines itself."""
    module, name, *method = dotted.split(".")
    module = importlib.import_module(f"tracekit.{module}")
    obj = vars(module).get(name)
    if name not in module.__all__ or getattr(obj, "__module__", None) != module.__name__:
        return False
    return not method or (len(method) == 1 and callable(vars(obj).get(method[0])))


def _layer_span_names(tracing) -> set[str]:
    """The span names ``layer_metrics`` reads by literal: each string passed to
    ``.get(...)`` or as ``total(...)``'s name, and each dotted string of a
    tuple it loops over."""
    source = Path(tracing.__file__).read_text()
    func = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    literals = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Attribute) and callee.attr == "get":
                literals.extend(node.args[:1])
            elif isinstance(callee, ast.Name) and callee.id == "total":
                literals.extend(node.args[1:2])
        elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.iter, ast.Tuple):
            literals.extend(node.iter.elts)
    return {
        node.value for node in literals
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value
    }


def test_every_name_perfbench_reads_resolves():
    # A renamed or deleted name would silently zero a per-layer metric.
    tracing = oracles.perfbench_module("tracing")
    run = oracles.perfbench_module("run")
    spans = _layer_span_names(tracing)
    # The extraction finds each kind of read: .get, total, the set-up loop.
    assert {"matfunc.lanczos_apply", "bench.emit_csv", "synth.power_law_matrix"} <= spans
    names = {
        *tracing.CAPTURES,
        *tracing.QUERY_SPANS,
        *(f"estimators.{name}" for name in tracing.TRIAL_ESTIMATORS),
        *spans,
    }
    assert not _traceable("matfunc.PowerOperator.inner_matvecs")  # inherited
    assert not _traceable("estimators._project")  # not public
    missing = {name for name in names if not _traceable(name)}
    assert missing <= _PERFBENCH_STALE, sorted(missing - _PERFBENCH_STALE)
    for method in run.SetupClock.METHODS:
        assert callable(vars(LinearOperator).get(method)), method
    for cls in (LanczosFunctionOperator, PowerOperator):
        assert isinstance(getattr(cls, "inner_matvecs", None), property), cls
