"""A process that runs only table commands loads neither numpy nor scipy.

`import octolift.cli` registers the algebra and numeric modules without
executing them, so the table pipelines pay only for the coset, lift and
scalar layers.  The benchmark tracer still finds every layer it spans in
sys.modules."""

import json
import os
import subprocess
import sys

from test_tracing_names import _literal


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
