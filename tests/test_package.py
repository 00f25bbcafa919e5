"""The package namespace (each public name declared once) and a source-level lint."""

import ast
import importlib
from pathlib import Path

import tracekit

MODULES = ("linop", "estimators", "matfunc", "synth", "graph", "bench")


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
