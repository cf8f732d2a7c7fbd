"""Every defaulted parameter of a top-level package function is set by some
caller.

A parameter with a default that no caller sets is an option nobody uses:
the function should take the default as a constant instead.  The callers
are the code of the package, ``tests/test_acceptance.py`` and
``bench/*.py``; unit tests are not, as a parameter only they set belongs in
a test helper.  Calls are resolved to their function as in
``test_dead_definitions``: in the package and the acceptance file through
the imports and lazy bindings, in ``bench/`` by name to a function of that
name in any module.

A call sets a parameter when it passes it by keyword or passes enough
positional arguments to reach it, and sets every parameter when it passes
``*args`` or ``**kwargs``.  A reference to the function that is not the
callee of a call (``ctx.run(self.cli.main)``) hands it to code this check
cannot follow, so it counts as setting every parameter."""

import ast
from pathlib import Path

from test_dead_definitions import _imports, _parse

ROOT = Path(__file__).resolve().parents[1]
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defaulted(args: ast.arguments) -> dict:
    """Each parameter with a default, mapped to its position among the
    positional parameters, or to None for a keyword-only one."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {a.arg: i for i, a in enumerate(positional) if i >= first}
    out.update((a.arg, None) for a, d in zip(args.kwonlyargs,
                                             args.kw_defaults)
               if d is not None)
    return out


def _set_by(call: ast.Call, params: dict) -> set:
    """The parameters of params that call sets."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return set(params)
    keywords = {k.arg for k in call.keywords}
    return {name for name, pos in params.items()
            if name in keywords or (pos is not None and len(call.args) > pos)}


def unset_parameters(root: Path = ROOT) -> list:
    """'module.function(parameter)' for each defaulted parameter of a
    top-level package function that no caller sets, sorted."""
    paths = sorted((root / "src" / "octolift").glob("*.py"))
    package = {path.stem for path in paths}
    params, by_name, sources = {}, {}, []
    for path in paths:
        tree = _parse(path)
        for node in tree.body:
            if isinstance(node, FUNCS):
                params[path.stem, node.name] = _defaulted(node.args)
                by_name.setdefault(node.name, []).append(
                    (path.stem, node.name))
        sources.append((tree, path.stem, _imports(tree, package)))
    acceptance = _parse(root / "tests" / "test_acceptance.py")
    sources.append((acceptance, "test_acceptance",
                    _imports(acceptance, package)))
    sources += [(_parse(path), None, None)
                for path in sorted((root / "bench").glob("*.py"))]

    def targets(node, here, imports) -> list:
        if here is None:      # bench: any function of that name
            name = getattr(node, "id", getattr(node, "attr", None))
            return by_name.get(name, [])
        names, modules = imports
        if isinstance(node, ast.Name) and node.id not in modules:
            return [names.get(node.id, (here, node.id))]
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            return [(modules[node.value.id], node.attr)]
        return []

    unset = {f: set(p) for f, p in params.items() if p}
    for tree, here, imports in sources:
        callees = {id(node.func) for node in ast.walk(tree)
                   if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for f in targets(node.func, here, imports):
                    if f in unset:
                        unset[f] -= _set_by(node, params[f])
            elif (isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load)
                  and id(node) not in callees):
                for f in targets(node, here, imports):
                    unset.pop(f, None)
    return sorted(f"{m}.{n}({p})" for (m, n), ps in unset.items()
                  for p in ps)


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = unset_parameters()
    assert not unset, "parameters no caller sets in src/octolift: " + \
        ", ".join(unset)


def test_unset_parameters_are_found(tmp_path):
    """Keywords, positions, *args, bare references and bench calls by
    name set parameters; a call from a unit test and a method call set
    none."""
    files = {
        "src/octolift/a.py": (
            "from .b import g\n"
            "from . import c\n"
            "def f(x, y=1, z=2, *, w=3, v=4): pass\n"
            "def run(obj, args):\n"
            "    f(0, 1, w=2)\n"
            "    obj.h(0, 1)\n"
            "    g(*args)\n"
            "    return c.k(0), c.handed\n"
            "def h(p=0, q=1): pass\n"),
        "src/octolift/b.py": "def g(s=0): pass\ndef unit(u=0): pass\n",
        "src/octolift/c.py": ("def k(m, n=0): pass\n"
                              "def handed(o=0): pass\n"
                              "def by_bench(x=0, y=1): pass\n"),
        "tests/test_acceptance.py": "from octolift.a import f\nf(0, v=1)\n",
        "tests/test_b.py": "from octolift.b import unit\nunit(1)\n",
        "bench/workloads.py": "def job(mod): return mod.by_bench(y=2)\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unset_parameters(tmp_path) == [
        "a.f(z)", "a.h(p)", "a.h(q)", "b.unit(u)", "c.by_bench(x)",
        "c.k(n)"]
