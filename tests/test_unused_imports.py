"""Every name a module of the package imports is used by that module.

An import binds local names: ``import a.b`` binds ``a``, ``import a as x``
and ``from m import a as x`` bind ``x``.  Each must be read somewhere in the
module, as a bare name or as the base of an attribute (``importlib.util``
reads ``importlib``), in code or in an annotation; a name in a docstring or
a comment is no use.  An import whose statement carries ``# noqa: F401`` on
one of its lines is a deliberate re-export and is not checked, and
``from __future__`` imports bind no name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOQA = "# noqa: F401"


def unused_imports(root: Path = ROOT) -> list:
    """'module:line name' for each imported name that its module never
    reads, sorted."""
    out = []
    for path in sorted((root / "src" / "octolift").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any(NOQA in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                if local not in read:
                    out.append(f"{path.stem}:{node.lineno} {local}")
    return sorted(out)


def test_every_imported_name_is_used():
    unused = unused_imports()
    assert not unused, "unused imports in src/octolift: " + ", ".join(unused)


def test_unused_imports_are_found(tmp_path):
    """A name read in code, an annotation or as an attribute base is used;
    one named only in a docstring is not; a noqa line and __future__ are
    skipped."""
    src = tmp_path / "src" / "octolift"
    src.mkdir(parents=True)
    (src / "a.py").write_text(
        "from __future__ import annotations\n"
        "import importlib.util\n"
        "import json as js\n"
        "from math import (gcd,\n"
        "                  pi)\n"
        "from typing import List\n"
        "from .b import x, y  # noqa: F401\n"
        "def f(n: List) -> None:\n"
        "    '''gcd and js are named here only.'''\n"
        "    import os\n"
        "    return importlib.util, pi\n")
    (src / "b.py").write_text("x = y = 0\n")
    assert unused_imports(tmp_path) == ["a:10 os", "a:3 js", "a:4 gcd"]
