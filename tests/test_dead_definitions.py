"""Every top-level function and class in the package is run by something.

A definition is live when module-level code of the package, a live
definition of the package, ``tests/test_acceptance.py`` or ``bench/*.py``
names it; ``bench/`` counts identifier strings too, so the tracer's
``SPANNED`` and ``COUNTED`` names are references.  The ``cmd_*`` functions
are live because ``cli._command`` looks them up by name, and a module's
``__getattr__`` because the interpreter does.  Liveness spreads
from those roots to a fixpoint.  Unit tests are not roots: a helper that
only unit tests call belongs in ``tests/oracles.py`` or nowhere.

In the package and in ``tests/test_acceptance.py`` a reference is resolved
to its module: a bare name to the module it is used in, or to the module
it was imported from (``from .m import x``), and ``m.x`` to module m when m
names a module of the package, by an import or by a lazy binding
``m = _lazy(".m")`` (a name assigned a call on the module's name).  Any other attribute is a method or field
and refers to no top-level definition, so a method named like a function of
another module keeps that function dead.  The names and strings of
``bench/`` match a definition of that name in any module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module, package: set):
    """(names, modules) bound by the imports and lazy bindings anywhere in
    tree: names maps a local name to the (module, name) it was imported as,
    modules maps a local name to the module of the package (a set of module
    names) it stands for."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            src = node.module or ""
            if node.level == 0:
                if src != "octolift" and not src.startswith("octolift."):
                    continue
                src = src[len("octolift."):] if "." in src else ""
            for alias in node.names:
                local = alias.asname or alias.name
                if src in package:
                    names[local] = (src, alias.name)
                elif not src and alias.name in package:
                    modules[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                mod = alias.name.rpartition(".")[2]
                if alias.name.startswith("octolift.") and alias.asname:
                    modules[alias.asname] = mod
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Call)
              and len(node.value.args) == 1
              and isinstance(node.value.args[0], ast.Constant)
              and isinstance(node.value.args[0].value, str)):
            target = node.value.args[0].value
            for prefix in (".", "octolift."):
                mod = target[len(prefix):]
                if target.startswith(prefix) and mod in package:
                    modules[node.targets[0].id] = mod
    return names, modules


def _refs(node, here: str, imports) -> set:
    """(module, name) of each reference under node, resolved as the module
    docstring says; an import alone is no reference."""
    names, modules = imports
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id not in modules:
            out.add(names.get(sub.id, (here, sub.id)))
        elif (isinstance(sub, ast.Attribute)
              and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            out.add((modules[sub.value.id], sub.attr))
    return out


def _bench_names(node) -> set:
    """Names, attribute names, imported names and identifier strings under
    node, without their module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            out.add(sub.value)
    return out


def dead_definitions(root: Path = ROOT) -> list:
    """'module.name' of each top-level definition in the package that
    nothing live references, sorted."""
    paths = sorted((root / "src" / "octolift").glob("*.py"))
    package = {path.stem for path in paths}
    defs = {}        # (module, name) -> (module, name) its body references
    acceptance = _parse(root / "tests" / "test_acceptance.py")
    roots = _refs(acceptance, "test_acceptance",
                  _imports(acceptance, package))
    bench = set()
    for path in sorted((root / "bench").glob("*.py")):
        bench |= _bench_names(_parse(path))
    for path in paths:
        tree = _parse(path)
        imports = _imports(tree, package)
        for node in tree.body:
            if isinstance(node, DEFS):
                defs[path.stem, node.name] = (
                    _refs(node, path.stem, imports) - {(path.stem, node.name)})
            else:
                roots |= _refs(node, path.stem, imports)
    roots |= {d for d in defs if d[1] in bench or d[1].startswith("cmd_")
              or d[1] == "__getattr__"}
    live, seen = set(), roots
    while seen - live:
        live |= seen
        seen = live.union(*(refs for d, refs in defs.items() if d in live))
    return sorted(f"{m}.{n}" for m, n in defs if (m, n) not in live)


def test_every_definition_is_reached():
    dead = dead_definitions()
    assert not dead, "unreferenced definitions in src/octolift: " + \
        ", ".join(dead)


def test_references_resolve_to_their_module(tmp_path):
    """A method or a same-named function of another module keeps nothing
    alive; an import from the module, m.x and a bench string do."""
    files = {
        "src/octolift/a.py": (
            "from .b import used\n"
            "from . import c\n"
            "class Lattice:\n"
            "    def qval(self): return used() + c.by_attr()\n"
            "def qval(): pass\n"
            "def run(lat): return lat.qval()\n"
            "def cmd_go(): return Lattice()\n"),
        "src/octolift/b.py": "def used(): pass\ndef run(): pass\n",
        "src/octolift/c.py": "def by_attr(): pass\ndef spanned(): pass\n",
        "tests/test_acceptance.py": "from octolift.a import run\nrun(0)\n",
        "bench/tracing.py": "SPANNED = {'c': ('spanned',)}\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert dead_definitions(tmp_path) == ["a.qval", "b.run"]


def test_lazy_bindings_resolve_to_their_module(tmp_path):
    """m = _lazy(".m") binds m to module m as `from . import m` would, so
    m.x keeps exactly x alive."""
    files = {
        "src/octolift/a.py": (
            "def _lazy(name): pass\n"
            "c = _lazy('.c')\n"
            "d = _lazy('octolift.d')\n"
            "def cmd_go(): return c.used() + d.used()\n"),
        "src/octolift/c.py": "def used(): pass\ndef unused(): pass\n",
        "src/octolift/d.py": "def used(): pass\ndef unused(): pass\n",
        "tests/test_acceptance.py": "",
        "bench/tracing.py": "",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert dead_definitions(tmp_path) == ["c.unused", "d.unused"]
