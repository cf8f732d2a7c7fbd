"""Every top-level function and class in the package is run by something.

A definition is live when module-level code of the package, a live
definition of the package, ``tests/test_acceptance.py`` or ``bench/*.py``
names it; ``bench/`` counts identifier strings too, so the tracer's
``SPANNED`` and ``COUNTED`` names are references.  The ``cmd_*`` functions
are live because ``cli._command`` looks them up by name.  Liveness spreads
from those roots to a fixpoint.  Unit tests are not roots: a helper that
only unit tests call belongs in ``tests/oracles.py`` or nowhere.

Names are matched without their module, so a name defined in two modules
is live in both once either is referenced."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "octolift"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node, strings=False) -> set:
    """Names, attribute names and imported names under node; with strings,
    also every string constant that is an identifier."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif (strings and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str) and sub.value.isidentifier()):
            out.add(sub.value)
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def dead_definitions() -> list:
    """'module.name' of each top-level definition in the package that
    nothing live references, sorted."""
    defs = {}        # (module, name) -> names its body references
    roots = _names(_parse(ROOT / "tests" / "test_acceptance.py"))
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots |= _names(_parse(path), strings=True)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, DEFS):
                defs[path.stem, node.name] = _names(node) - {node.name}
            else:
                roots |= _names(node)
    live, seen = set(), roots | {n for _, n in defs if n.startswith("cmd_")}
    while seen - live:
        live |= seen
        seen = live.union(*(refs for (_, name), refs in defs.items()
                            if name in live))
    return sorted(f"{m}.{n}" for m, n in defs if n not in live)


def test_every_definition_is_reached():
    dead = dead_definitions()
    assert not dead, "unreferenced definitions in src/octolift: " + \
        ", ".join(dead)
