"""The benchmark tracer's names exist in the package.

bench/tracing.py rebinds the functions in SPANNED and counts the methods in
COUNTED by name; a name deleted from the package would break a traced
benchmark run.  The file is read as text and never imported, so the check
sees exactly the names the tracer will look up."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _literal(name: str):
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not assigned in {TRACING}")


def test_spanned_functions_exist():
    spanned = _literal("SPANNED")
    assert spanned
    for module, names in spanned.items():
        mod = importlib.import_module(f"octolift.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_counted_methods_exist():
    # Tracer.install reads each method from the class __dict__, so one that
    # is inherited, or reached only through __getattr__, does not count
    counted = _literal("COUNTED")
    assert counted
    for _counter, module, cls_name, methods in counted:
        cls = getattr(importlib.import_module(f"octolift.{module}"),
                      cls_name, None)
        assert isinstance(cls, type), f"{module}.{cls_name}"
        for method in methods:
            assert callable(cls.__dict__.get(method)), \
                f"{module}.{cls_name}.{method}"
