"""The five closed-loop workloads of the benchmark.

Every job goes through the public API: ``octolift.cli.main(argv)`` in
process, plus ``whittaker.positivity_oracle``, which has no subcommand.  A
job's inputs come only from the seed string handed to it, and every job's
output is checked by the benchmark itself: a job fails when a command does
not report ``pass`` (exit code 0), when it raises, or when the benchmark's own
check of its output fails.

A job may return a callable that checks its output files; the benchmark
calls it after the job's timer stops.  Job 0 of every workload is the
untimed warm-up; timed jobs are 1, 2, ...
Workloads with ``cycle`` > 1 always run whole cycles of job sizes, so every
run times the same mix of sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

from calibrate import HostClock

REFERENCE = Path(__file__).resolve().parent / "reference"

# The keys cycled by the poincare workload, in job order (job 0, the warm-up,
# uses the cheapest key).  Each takes 1-2 s, so a run holds several cycles;
# 2,0,1 has the largest batches (peak RSS about 265 MB).  1,0,1 (7-8 s,
# 310 MB) is left out: a run would hold one or two jobs of it, and a median
# of so few does not repeat on a shared host.  The reference CSVs hold the
# outputs at weight 16, radius 1.
POINCARE_KEYS = ("2,0,2", "2,0,1", "1,0,2")
POINCARE_RTOL = 1e-12


Check = Optional[Callable[[], None]]   # verifies a job's output files


class CheckFailed(Exception):
    """A job's output did not pass the benchmark's own check."""


@dataclass
class Context:
    """What a job needs: the imported package and a private work directory."""
    cli: object
    whittaker: object
    coset: object
    work: Path
    seed: int
    host: Optional[HostClock] = None   # times the calls into the program

    def job_dir(self, j: int) -> Path:
        d = self.work / f"job{j}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def rng(self, j: int) -> random.Random:
        """The generator of job j's inputs (str seeds hash deterministically)."""
        return random.Random(f"{self.seed}/{j}")

    def run(self, fn, *args):
        """fn(*args), a call into the program: with a host clock, one of
        its measured intervals."""
        return fn(*args) if self.host is None else self.host.run(fn, *args)

    def call(self, *argv) -> dict:
        """Run one CLI command in process; raise CheckFailed unless it
        exits 0 with status "pass".  Returns the parsed JSON report."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.run(self.cli.main, [str(a) for a in argv])
        report = json.loads(out.getvalue())
        if code != 0 or report.get("status") != "pass":
            raise CheckFailed(f"{argv[0]}: exit {code}, status "
                              f"{report.get('status')!r}: "
                              f"{report.get('details')}")
        return report


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int          # timed jobs run in whole cycles of this length
    trace_jobs: int     # timed jobs 1..trace_jobs make up the traced pass
    host_block: str     # calibrate.BLOCKS entry whose work is like its jobs
    prepare: Callable[[Context], None]
    job: Callable[[Context, int], Check]


def _no_inputs(ctx: Context) -> None:
    pass


def _gauss(entry: dict):
    return (Fraction(entry.get("re", "0")), Fraction(entry.get("im", "0")))


# --- spezialschar ------------------------------------------------------------

def _spezialschar_job(ctx: Context, j: int) -> Check:
    d = ctx.job_dir(j)
    ell = (4, 10, 16)[j % 3]
    seed = ctx.rng(j).randrange(2 ** 31)
    c, F, phi, fj = (d / n for n in ("c.json", "F.json", "phi.json",
                                     "fj.json"))
    ctx.call("synth", "--kind", "halfintegral", "--seed", seed,
             "--bound", 144, "--out", c)
    ctx.call("lift", "--in", c, "--weight", ell, "--bound", 144, "--out", F)
    ctx.call("theta-star", "--in", F, "--bound", 36, "--out", phi)
    ctx.call("maass-check", "--in", phi)
    ctx.call("fj", "--in", phi, "--out", fj)
    return lambda: _check_round_trip(F, fj)


def _check_round_trip(F: Path, fj: Path) -> None:
    """Criterion 6: each Fourier-Jacobi coefficient equals the lifted
    table's coefficient at the same reduced key."""
    lifted = {tuple(e["key"]): _gauss(e)
              for e in json.loads(F.read_text())["entries"]}
    extracted = json.loads(fj.read_text())["entries"]
    if not extracted:
        raise CheckFailed("fj.json has no entries")
    for e in extracted:
        key = tuple(e["key"])
        if lifted.get(key) != _gauss(e):
            raise CheckFailed(f"fj coefficient at {key} differs from the "
                              "lifted table")


# --- dirichlet ---------------------------------------------------------------

# d2 reaches 10, so the divisor_cosets trial loop still dominates, and a job
# takes about 0.7 s, so a run holds enough jobs for a steady median (at 12 a
# job takes 2-3 s).
DIRICHLET_BOUND = 10
# The chosen pairs have disc <= 8 and the series reads a_F at lam . g with
# |det g| <= bound, so the table must reach disc 8 * bound^2.
DIRICHLET_DISC = 8 * DIRICHLET_BOUND ** 2


def _dirichlet_prepare(ctx: Context) -> None:
    ctx.call("synth", "--kind", "siegel", "--seed",
             ctx.rng(-1).randrange(2 ** 31), "--bound", DIRICHLET_DISC,
             "--weight", 4, "--out", ctx.work / "F.json")


def _dirichlet_job(ctx: Context, j: int) -> None:
    ctx.call("dirichlet", "--in", ctx.work / "F.json",
             "--bound", DIRICHLET_BOUND, "--count", 1,
             "--seed", ctx.rng(j).randrange(2 ** 31))


# --- algebra -----------------------------------------------------------------

def _algebra_job(ctx: Context, j: int) -> None:
    seed = ctx.rng(j).randrange(2 ** 31)
    ctx.call("oct-check", "--bound", 300, "--seed", seed)
    ctx.call("triality-verify", "--bound", 30, "--seed", seed)
    ctx.call("reduce", "--count", 10, "--seed", seed)


# --- whittaker ---------------------------------------------------------------

def _definite_pair(ctx: Context, rng: random.Random):
    """A random pair with positive definite gram, drawn as criterion 13
    draws it."""
    mat2, gram = ctx.coset.mat2, ctx.coset.gram
    while True:
        lam = tuple(mat2(*(rng.randint(-3, 3) for _ in range(4)))
                    for _ in range(2))
        if gram(lam).is_positive_definite():
            return lam


def _whittaker_job(ctx: Context, j: int) -> None:
    ctx.call("whittaker", "--weight", (4, 6)[j % 2])
    lam = _definite_pair(ctx, ctx.rng(j))
    answer = ctx.run(ctx.whittaker.positivity_oracle, lam)
    if answer not in ("positive", "swapped"):
        raise CheckFailed(f"positivity_oracle({lam}) = {answer!r}")


# --- poincare ----------------------------------------------------------------

def reference_csv(key: str) -> Path:
    return REFERENCE / f"poincare_{key.replace(',', '-')}.csv"


def _read_components(path: Path) -> List[complex]:
    lines = path.read_text().split()
    if lines[0] != "v,re,im":
        raise CheckFailed(f"{path.name}: unexpected header {lines[0]!r}")
    return [complex(float(re), float(im))
            for _v, re, im in (line.split(",") for line in lines[1:])]


def _poincare_job(ctx: Context, j: int) -> Check:
    key = POINCARE_KEYS[j % len(POINCARE_KEYS)]
    out = ctx.job_dir(j) / "p.csv"
    ctx.call("poincare", "--key", key, "--weight", 16, "--bound", 1,
             "--out", out)
    return lambda: _check_poincare(key, out)


def _check_poincare(key: str, out: Path) -> None:
    got, want = _read_components(out), _read_components(reference_csv(key))
    scale = max(abs(z) for z in want)
    if len(got) != len(want) or any(abs(g - w) > POINCARE_RTOL * scale
                                    for g, w in zip(got, want)):
        raise CheckFailed(f"poincare {key}: output differs from the "
                          f"reference by more than {POINCARE_RTOL} relative")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("spezialschar", 3, 6, "interpreter", _no_inputs,
             _spezialschar_job),
    Workload("dirichlet", 1, 2, "interpreter", _dirichlet_prepare,
             _dirichlet_job),
    Workload("algebra", 1, 2, "interpreter", _no_inputs, _algebra_job),
    Workload("whittaker", 1, 2, "interpreter", _no_inputs, _whittaker_job),
    Workload("poincare", 3, 3, "vectorised", _no_inputs, _poincare_job),
)}
