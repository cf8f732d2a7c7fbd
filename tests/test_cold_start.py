"""What a fresh process loads.

A process that runs only table commands loads no numpy: `import
octolift.cli` registers the algebra and numeric modules without executing
them, so the table pipelines pay only for the coset, lift and scalar
layers, and the benchmark tracer still finds every layer it spans in
sys.modules.  The numeric commands load numpy but neither scipy nor
numpy.ma, and every import in the package is the standard library, the
package itself or a runtime dependency that pyproject.toml lists."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_tracing_names import _literal

ROOT = Path(__file__).resolve().parents[1]


def _python(code: str, cwd=None) -> str:
    """The standard output of code run in a fresh interpreter that imports
    octolift as this test session does."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=120, env=env, cwd=cwd)
    assert p.returncode == 0, p.stderr
    return p.stdout


def test_table_pipeline_loads_no_numpy_and_registers_every_layer(tmp_path):
    steps = [
        ["synth", "--kind", "halfintegral", "--seed", "1", "--bound", "40",
         "--out", "c.json"],
        ["lift", "--in", "c.json", "--weight", "10", "--bound", "40",
         "--out", "F.json"],
        ["theta-star", "--in", "F.json", "--bound", "4", "--out",
         "phi.json"],
        ["maass-check", "--in", "phi.json"],
        ["fj", "--in", "phi.json", "--out", "fj.json"],
        ["dirichlet", "--in", "F.json", "--bound", "2", "--count", "1"],
    ]
    code = ("import contextlib, io, json, sys\n"
            "import octolift.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(argv) for argv in {steps!r}]\n"
            "print(json.dumps({'codes': codes, 'modules': list(sys.modules)}))"
            "\n")
    out = json.loads(_python(code, cwd=tmp_path))
    assert out["codes"] == [0] * len(steps)
    loaded = set(out["modules"])
    assert not {"numpy", "scipy"} & loaded
    spanned = {f"octolift.{layer}" for layer in _literal("SPANNED")}
    assert spanned <= loaded, sorted(spanned - loaded)


def test_registered_modules_load_when_imported_elsewhere():
    """After cli registers the modules, `import octolift.m` and
    `from octolift import m` still give a loaded module reachable from
    the package."""
    code = ("import sys, octolift.cli, octolift.orbits\n"
            "from octolift import triality\n"
            "print(octolift.orbits.reduce_pair.__name__,"
            " triality.phi_iso.__name__,"
            " type(sys.modules['octolift.whittaker']).__name__)\n")
    assert _python(code).split() == ["reduce_pair", "phi_iso", "_LazyModule"]


def _modules_after(argv, cwd) -> set:
    """The modules loaded by a fresh interpreter that runs one command."""
    code = ("import contextlib, io, json, sys\n"
            "import octolift.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "print(json.dumps({'code': code, 'modules': list(sys.modules)}))"
            "\n")
    out = json.loads(_python(code, cwd=cwd))
    assert out["code"] == 0
    return set(out["modules"])


def test_numeric_commands_load_neither_scipy_nor_numpy_ma(tmp_path):
    for argv in (["whittaker", "--weight", "4"],
                 ["poincare", "--key", "2,0,2", "--bound", "1"]):
        loaded = _modules_after(argv, tmp_path)
        assert "numpy" in loaded and "numpy.ma" not in loaded, argv
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}, argv


def _imported_names(tree: ast.AST):
    """The top-level name of every absolute import in tree, function-local
    ones included; a relative import is the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_the_package_or_a_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
              .replace("-", "_") for spec in project["dependencies"]}
    allowed = set(sys.stdlib_module_names) | {"octolift"} | listed
    sources = sorted((ROOT / "src" / "octolift").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set(_imported_names(tree))
        assert names <= allowed, (path.name, sorted(names - allowed))
    assert listed == {"numpy"}
