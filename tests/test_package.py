"""The package namespace: each public name is declared once, in its module."""

import importlib

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
