"""Command-line front end: JSON coefficient tables in and out, one subcommand
per verification pipeline, machine-readable JSON reports.

Table file format (exact data only, no floats):

    {"kind": "halfintegral" | "siegel" | "quaternionic",
     "weight": <int>,
     "entries": [{"key": <key>, "re": "p/q", "im": "p/q"}, ...]}

where <key> is an integer n (halfintegral), a triple [a, b, c] (siegel), or a
pair of 2x2 integer matrices (quaternionic).  Values are Gaussian rationals:
"re" and "im" (each "0" when absent) are strings "p/q" or "n" with an
optional sign, as written in lowest terms.  A zero denominator, a string
that fractions.Fraction does not parse and a value that is not a string are
data errors.  The other strings Fraction parses ("2/4", "1.5", "1e3", "1_0",
surrounding whitespace) load today but are not part of the format; an
exponent above 4300 in absolute value is a data error.  Written tables hold
the kind and weight on the first line and one entry per line.  Numeric
results (whittaker, poincare) are written as CSV with 17 significant
digits.

Report format, emitted as JSON on standard output by every subcommand:

    {"command": ..., "status": "pass" | "fail" | "error",
     "details": [...], "seed": ..., "timings": {"total_s": ...}}

Exit code 0 on pass, 1 on fail, 2 on usage or data errors.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import random
import sys
import time
import traceback
from fractions import Fraction
from math import exp, gcd, isqrt, pi
from typing import Dict, List, Optional, Tuple

from .coset import (GramTriple, breve, gram, hnf_right_cosets,
                    is_strongly_primitive, pair_act, reduce_gram)
from .lifts import (HalfIntegralTable, InsufficientTableError, QuatTable,
                    SiegelTable, classical_maass_check, classical_maass_lift,
                    dirichlet_factor_check, fj_pair,
                    maass_membership, reduced_triples, require_disc,
                    spezialschar_keys, theta_star_table)
from .scalar import GaussRational


def _lazy(name: str):
    """The package module name (".m"), registered in sys.modules but
    executed at its first attribute access; or the module already
    registered under that name, so that every caller shares one copy.
    The table commands never touch the lazy modules, so a process that
    runs only them loads neither numpy nor scipy.  An import of the module
    elsewhere (`from octolift import m`, `import octolift.m`) loads it at
    once, as it would without this (see octolift.__getattr__)."""
    name = importlib.util.resolve_name(name, __package__)
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


# The modules of the algebra and numeric commands.  numpy is no module of
# the package; those commands import it where they use it.
octonion = _lazy(".octonion")
orbits = _lazy(".orbits")
quadspace = _lazy(".quadspace")
triality = _lazy(".triality")
whittaker = _lazy(".whittaker")


class TableError(Exception):
    """A table file failed to parse; the message is the diagnostic."""


# --- exact value / key codecs ---------------------------------------------------

# Fraction("1e<n>") builds 10^|n| exactly, for seconds at n = 10^7; CPython
# bounds the digits of an integer string, and so a mantissa, by 4300 too.
_MAX_EXPONENT = 4300


def _parse_rational(s, where: str) -> Fraction:
    if not isinstance(s, str):
        raise TableError(f"{where}: rational values must be strings, "
                         f"got {type(s).__name__}")
    try:    # an exponent that int() rejects, Fraction rejects too
        exponent = abs(int(s.lower().partition("e")[2]))
    except ValueError:
        exponent = 0
    if exponent > _MAX_EXPONENT:
        raise TableError(f"{where}: the exponent of {s!r} exceeds "
                         f"{_MAX_EXPONENT} in absolute value")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise TableError(f"{where}: bad rational string {s!r} ({e})")


def _parse_int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TableError(f"{where}: expected an integer, got {x!r}")
    return x


def _not_an_int(i: int, parts) -> TableError:
    bad = next(e for e in parts if type(e) is not int)
    return TableError(f"entries[{i}]: expected an integer, got {bad!r}")


def _parse_mat2(x, i: int):
    if type(x) is list and len(x) == 2:
        r, s = x
        if type(r) is list and type(s) is list and len(r) == len(s) == 2:
            (a, b), (c, d) = r, s
            if (type(a) is int and type(b) is int and type(c) is int
                    and type(d) is int):
                return (a, b), (c, d)
            raise _not_an_int(i, (a, b, c, d))
    raise TableError(f"entries[{i}]: expected a 2x2 integer matrix, "
                     f"got {x!r}")


def _parse_key(cls, key, i: int):
    """The key of a table of class cls for entries[i]'s JSON key.
    json.load gives exact int and list types, so a bool, a float or a tuple
    is no integer or list here; the diagnostic is built only when the key
    is rejected."""
    if cls is HalfIntegralTable:
        if type(key) is int:
            return key
        raise _not_an_int(i, (key,))
    if cls is SiegelTable:
        if type(key) is not list or len(key) != 3:
            raise TableError(f"entries[{i}]: expected a triple [a, b, c]")
        a, b, c = key
        if type(a) is int and type(b) is int and type(c) is int:
            return GramTriple(a, b, c)
        raise _not_an_int(i, key)
    if type(key) is not list or len(key) != 2:
        raise TableError(f"entries[{i}]: expected a pair of 2x2 matrices")
    return _parse_mat2(key[0], i), _parse_mat2(key[1], i)


# Every table key is an int or a nested tuple of ints, so it sorts and
# json.dumps writes it as the file does.
TABLES = {cls.kind: cls
          for cls in (HalfIntegralTable, SiegelTable, QuatTable)}
KINDS = tuple(TABLES)


def parse_table(data):
    """JSON object -> HalfIntegralTable / SiegelTable / QuatTable, in one
    pass over the entries.  Each distinct value string is parsed once by
    Fraction."""
    if not isinstance(data, dict):
        raise TableError("table file must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise TableError(f"kind must be one of {KINDS}, got {kind!r}")
    cls = TABLES[kind]
    weight = _parse_int(data.get("weight"), "weight")
    raw = data.get("entries")
    if not isinstance(raw, list):
        raise TableError("entries must be a list")
    rationals: Dict[str, Fraction] = {}

    def rational(s, i: int) -> Fraction:
        q = rationals.get(s) if type(s) is str else None
        if q is None:   # _parse_rational rejects a value that is no string
            q = rationals[s] = _parse_rational(s, f"entries[{i}]")
        return q

    entries = {}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "key" not in entry:
            raise TableError(f"entries[{i}]: each entry needs a 'key'")
        key = _parse_key(cls, entry["key"], i)
        if key in entries:
            raise TableError(f"entries[{i}]: duplicate key {entry['key']!r}")
        entries[key] = GaussRational(rational(entry.get("re", "0"), i),
                                     rational(entry.get("im", "0"), i))
    try:
        return cls(weight, entries)
    except ValueError as e:
        raise TableError(f"invalid table: {e}")


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def serialize_table(table) -> dict:
    """Table object -> JSON object; keys are emitted in sorted order so the
    output is deterministic and parse(serialize(t)) == t."""
    entries = []
    try:
        for key in sorted(table.entries):
            v = table.entries[key]
            entries.append({"key": key, "re": _ratio(v.p, v.d),
                            "im": _ratio(v.q, v.d)})
    except ValueError:
        # str() of an integer longer than Python's digit limit
        raise TableError(f"cannot write the value at key "
                         f"{json.dumps(key)}: it has more than "
                         f"{sys.get_int_max_str_digits()} digits, Python's "
                         f"limit for integer-to-string conversion")
    return {"kind": table.kind, "weight": table.weight, "entries": entries}


def load_table(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise TableError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise TableError(f"{path}: invalid JSON: {e}")
    except UnicodeDecodeError as e:
        raise TableError(f"{path}: not UTF-8 text: {e}")
    except RecursionError:
        raise TableError(f"{path}: JSON nested too deeply to decode")
    return parse_table(data)


def write_table(table, path: str) -> None:
    """One JSON object: the kind and weight on the first line, then one
    entry per line.  Each line goes through json.dumps, whose C encoder an
    indent would switch off."""
    data = serialize_table(table)
    with open(path, "w") as f:
        f.write(f'{{"kind": {json.dumps(data["kind"])}, '
                f'"weight": {json.dumps(data["weight"])}, "entries": [')
        f.write(",".join("\n" + json.dumps(e) for e in data["entries"]))
        f.write("\n]}\n")


# --- synthetic tables ------------------------------------------------------------

def _random_gauss(rng: random.Random) -> GaussRational:
    return GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def synth_table(kind: str, seed: int, bound: int, weight: int = 10):
    """Deterministic pseudo-random table honoring the kind's support rule:
    halfintegral keys n <= bound with n = 0, 3 mod 4; siegel keys the reduced
    positive definite triples of discriminant <= bound; quaternionic keys the
    standard strongly-primitive family with det S <= bound."""
    if kind not in KINDS:
        raise TableError(f"kind must be one of {KINDS}, got {kind!r}")
    cls = TABLES[kind]
    if cls is HalfIntegralTable:
        keys = [n for n in range(bound + 1) if n % 4 in (0, 3)]
    elif cls is SiegelTable:
        keys = reduced_triples(bound)
    else:
        keys = spezialschar_keys(bound)
    rng = random.Random(seed)
    return cls(weight, {k: _random_gauss(rng) for k in keys})


# --- numeric CSV output ----------------------------------------------------------

def _g17(x: float) -> str:
    return format(x, ".17g")


def write_csv(path: str, header: List[str], rows: List[List[float]]) -> None:
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_g17(x) if isinstance(x, float) else str(x)
                             for x in row) + "\n")


# --- subcommand bodies -----------------------------------------------------------
# Each returns (status, details); raised TableError / ValueError /
# InsufficientTableError / OSError become status "error" with exit code 2,
# and so does any other exception, reported as an internal error.

# The random suites draw and check their cases in blocks of this many, so
# that memory stays bounded for any --bound: verifying a block of 1024
# triality triples raised the peak RSS by about 21 MB.
_BLOCK = 1024


def _suite_rng(seed: int):
    """The random suites' numpy Generator, derived from any int seed
    (numpy's default_rng rejects negative seeds)."""
    import numpy as np
    return np.random.default_rng(random.Random(seed).getrandbits(128))


def _blocks(rng, count: int, shape, lo: int, hi: int):
    """(first case index, cases): count cases of the given shape with
    int64 entries in lo..hi, drawn in blocks of _BLOCK; the case axis is
    second, so that a block unpacks into its operands."""
    for start in range(0, count, _BLOCK):
        n = min(_BLOCK, count - start)
        yield start, rng.integers(lo, hi + 1, size=(shape[0], n) + shape[1:])


def _octonion(w) -> str:
    """The octonion of int64 b-coordinates w, as a failure names it."""
    return str(octonion.from_vector8(w.tolist()))


def cmd_oct_check(args):
    for start, (x, y, z) in _blocks(_suite_rng(args.seed), args.bound,
                                    (3, 8), -5, 5):
        norm_ok, conj_ok, cyclic_ok = triality.octonion_identities(x, y, z)
        bad = ~(norm_ok & conj_ok & cyclic_ok)
        if not bad.any():
            continue
        i = int(bad.argmax())
        case = start + i
        xs, ys, zs = _octonion(x[i]), _octonion(y[i]), _octonion(z[i])
        if not norm_ok[i]:
            return "fail", [f"norm multiplicativity fails at case {case}: "
                            f"x={xs}, y={ys}"]
        if not conj_ok[i]:
            return "fail", [f"conjugation anti-homomorphism fails at case "
                            f"{case}: x={xs}, y={ys}"]
        return "fail", [f"trilinear cyclic symmetry fails at case {case}: "
                        f"x={xs}, y={ys}, z={zs}"]
    return "pass", [f"{args.bound} random exact cases verified for norm "
                    "multiplicativity, conjugation anti-homomorphism, "
                    "trilinear cyclic symmetry"]


def cmd_triality_verify(args):
    details = []
    basis = triality.GE_BASIS          # all 28 basis elements, one batch
    n = len(basis.num)
    imgs = triality.phi_iso(basis)
    back = triality.phi_inv(imgs)
    for k in range(n):
        if back[k] != basis[k]:
            return "fail", [f"phi_inv(phi_iso(X)) != X at basis element {k}"]
    details.append(f"phi bijective on the {n}-element basis")
    # all n x n pairs at once, by broadcasting a column against a row
    same = (triality.phi_iso(triality.ge_bracket(basis[:, None], basis[None]))
            - quadspace.bracket(imgs[:, None], imgs[None])).zero_mask()
    if not same.all():
        i, j = divmod(int(same.argmin()), n)
        return "fail", [f"phi fails to preserve the bracket at basis pair "
                        f"({i}, {j})"]
    details.append(f"phi preserves the bracket on all {n}x{n} basis pairs")
    same = (triality.phi_iso(triality.ge_cartan(basis))
            - quadspace.cartan_theta(imgs)).zero_mask()
    if not same.all():
        return "fail", [f"phi does not intertwine the Cartan involutions "
                        f"at basis element {int(same.argmin())}"]
    details.append("phi intertwines the Cartan involutions on the basis")
    bad = triality.triality_defects(*triality.standard_triple_batch())
    if bad.any():
        return "fail", [f"standard triality triple {int(bad.argmax())} "
                        f"fails"]
    details.append("all 6 standard triality triples verified")
    rng = _suite_rng(args.seed)
    for start, (u, v) in _blocks(rng, args.bound, (2, 8), -5, 5):
        bad = triality.triality_defects(*triality.mult_triples(u, v))
        if bad.any():
            i = int(bad.argmax())
            return "fail", [f"multiplication triple fails at case "
                            f"{start + i}: u={_octonion(u[i])}, "
                            f"v={_octonion(v[i])}"]
    details.append(f"{args.bound} random multiplication triples verified")
    for _, abc in _blocks(rng, args.bound, (3,), -9, 9):
        for a, b, c in abc.T.tolist():
            wc = triality.BhargavaCube.make(-c, (0, 0, b), (1, a, 1), 0)
            want = triality.BhargavaCube.make(-c, (0, b, 0), (a, 1, 1), 0)
            if triality.s3_act_cube((3, 1, 2), wc) != want:
                return "fail", [f"cube transformation fails at (a,b,c)="
                                f"({a},{b},{c})"]
    details.append(f"{args.bound} random cube transformations verified")
    details.append({"counts": {"basis_pairs": n * n, "cartan_elements": n,
                               "triples": 6 + args.bound,
                               "cubes": args.bound}})
    return "pass", details


def cmd_lift(args):
    c = load_table(args.infile)
    if not isinstance(c, HalfIntegralTable):
        raise TableError("lift needs a halfintegral input table")
    F = classical_maass_lift(c, args.weight, args.bound)
    if not F.entries:
        raise TableError(f"lift --bound {args.bound} yields no keys: the "
                         f"smallest discriminant is {_MIN_DISC}, so use "
                         f"--bound {_MIN_DISC} or more")
    rep = classical_maass_check(F)
    write_table(F, args.out)
    details = [rep.detail, f"wrote {args.out} "
               f"({len(F.entries)} keys, weight {F.weight})"]
    if c.weight != args.weight:
        details.append(f"input table has weight {c.weight}; lifted at "
                       f"--weight {args.weight}")
    return ("pass" if rep.ok else "fail"), details


def cmd_theta_star(args):
    F = load_table(args.infile)
    if not isinstance(F, SiegelTable):
        raise TableError("theta-star needs a siegel input table")
    phi = theta_star_table(F, args.bound)
    write_table(phi, args.out)
    return "pass", [f"wrote {args.out} ({len(phi.entries)} keys, "
                    f"weight {phi.weight})"]


def cmd_maass_check(args):
    phi = load_table(args.infile)
    if not isinstance(phi, QuatTable):
        raise TableError("maass-check needs a quaternionic input table")
    if not phi.entries:
        raise TableError(f"{args.infile} has no keys to check: theta-star "
                         "--bound 1 or more yields keys")
    rep = maass_membership(phi)
    return ("pass" if rep.ok else "fail"), [rep.detail]


def cmd_fj(args):
    phi = load_table(args.infile)
    if not isinstance(phi, QuatTable):
        raise TableError("fj needs a quaternionic input table")
    entries = {}
    for lam in phi.entries:
        t = gram(lam)
        if lam == fj_pair(t):
            entries[reduce_gram(t)] = phi.a(lam).conj()
    if not entries:
        raise TableError("no Fourier-Jacobi keys "
                         "([[a,0],[b,1]], [[0,-1],[c,0]]) in the table")
    out = SiegelTable(phi.weight, entries)
    write_table(out, args.out)
    return "pass", [f"wrote {args.out} ({len(entries)} extracted "
                    "coefficients)"]


def cmd_dirichlet(args):
    table = load_table(args.infile)
    if isinstance(table, SiegelTable):
        # Choose strongly primitive pairs over the smallest reduced triples,
        # then tabulate the quaternionic lift on exactly the orbit lam . g
        # (|det g| <= bound) the truncated series needs.
        triples = sorted(reduced_triples(8), key=lambda t: (t.disc(), t))
        lams = list(dict.fromkeys(   # breve(t) = fj_pair(t) when a = 1
            f(t) for t in triples for f in (breve, fj_pair)))
        if args.seed is not None:
            random.Random(args.seed).shuffle(lams)
        lams = lams[:args.count]
        # disc S(lam . g) = disc S(lam) |det g|^2, and the detbound-1 keys
        # reach 4: check the table before building any pair.
        require_disc(table, max([4] + [gram(lam).disc() * args.bound ** 2
                                       for lam in lams]))
        extra = [pair_act(lam, g) for lam in lams
                 for n in range(1, args.bound + 1)
                 for g in hnf_right_cosets(n)]
        phi = theta_star_table(table, 1, extra_pairs=extra)
    elif isinstance(table, QuatTable):
        phi = table
        lams = [lam for lam in sorted(phi.entries)
                if is_strongly_primitive(lam)]
        if not lams:
            raise TableError("no strongly primitive keys in the table")
        if args.seed is not None:
            random.Random(args.seed).shuffle(lams)
        lams = lams[:args.count]
    else:
        raise TableError("dirichlet needs a siegel or quaternionic table")
    details = []
    for lam in lams:
        rep = dirichlet_factor_check(phi, lam, args.bound)
        if not rep.ok:
            return "fail", [f"lambda={lam}: {rep.detail}"]
        details.append(f"lambda={lam}: {rep.detail}")
    return "pass", details


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    for p in range(2, isqrt(n) + 1):
        if n % (p * p) == 0:
            return False
    return True


def _random_isometry(lat, rng: random.Random):
    """A pseudo-random element of SO(L)(Z): a short product of Levi, Siegel,
    opposite and swap generators with small entries."""
    n = lat.n
    g = orbits.LatticeIsometry.identity(lat)
    for _ in range(6):
        kind = rng.randrange(4)
        if kind == 0:
            A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            i, j = rng.sample(range(n), 2)
            A[i][j] = rng.randint(-2, 2)
            g = orbits.levi_isometry(lat, A).compose(g)
        elif kind == 3:
            i, j = rng.sample(range(1, n + 1), 2)
            g = orbits.swap_isometry(lat, i, j).compose(g)
        else:
            B = [[0] * n for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            B[i][j], B[j][i] = k, -k
            make = (orbits.siegel_unipotent if kind == 1
                    else orbits.opposite_unipotent)
            g = make(lat, B).compose(g)
    return g


def cmd_reduce(args):
    rng = random.Random(args.seed)
    lat = orbits.SplitLattice(4)
    bv = lat.basis_vector
    for i in range(args.count):
        while True:
            a = rng.randint(1, args.bound)
            c = rng.randint(a, args.bound)
            b = rng.choice(range(1, 2 * isqrt(a * c), 2))  # odd, b^2 < 4ac
            if b * b < 4 * a * c and _is_squarefree(b * b - 4 * a * c):
                break
        T1 = tuple(a * p + q for p, q in zip(bv(1), bv(-1)))
        T2 = tuple(b * p + c * q + s
                   for p, q, s in zip(bv(1), bv(2), bv(-2)))
        g = _random_isometry(lat, rng)
        w1, w2 = g.apply(T1), g.apply(T2)
        h, t = orbits.reduce_pair(w1, w2)
        if t != GramTriple(a, b, c):
            return "fail", [f"case {i}: canonical form {t} does not match "
                            f"the source triple ({a},{b},{c})"]
        if h.apply(w1) != T1 or h.apply(w2) != T2:
            return "fail", [f"case {i}: reduction of the transported pair "
                            f"missed the canonical representatives"]
    return "pass", [f"{args.count} random pairs reduced to canonical form "
                    f"(triples up to bound {args.bound}, odd squarefree "
                    "discriminant)"]


def _worse(worst: float, err: float) -> float:
    """max(worst, err), except that a NaN on either side is kept."""
    return err if err != err or err > worst else worst


def cmd_whittaker(args):
    import numpy as np
    details = []
    rows = []
    worst_sv = 0.0
    for v in range(-22, 23):
        for X in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            closed = pi * exp(-X) * (1j ** v) / 2
            got = whittaker.s_v_sum(v, X)
            worst_sv = _worse(worst_sv, abs(got - closed) / abs(closed))
    if not worst_sv < args.tol:
        return "fail", [f"Bessel-sum identity: worst relative error "
                        f"{worst_sv:.3e} >= tol {args.tol:.3e}"]
    details.append(f"Bessel-sum identity verified for |v| <= 22, "
                   f"worst relative error {worst_sv:.3e}")
    ell = args.weight
    T = (0.2, -0.9, -1.1, -0.2)
    worst = 0.0
    worst_est = 0.0
    intervals = 0
    # At high weight the K-Bessel row overflows; the resulting inf or nan
    # fails the check below, so numpy need not also warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (0.7, 1.3):
            for theta in (0.0, 0.6):
                u = whittaker.boost_u(theta)
                num, closed = whittaker.archimedean_integral_check(T, t, u,
                                                                   ell)
                worst_est = _worse(worst_est, num.err)
                intervals += num.intervals
                for v in range(-ell, ell + 1):
                    cn, cc = num.component(v), closed.component(v)
                    worst = _worse(worst,
                                   abs(cn - cc) / max(abs(cc), 1e-300))
                    rows.append([v, t, theta, cn.real, cn.imag,
                                 cc.real, cc.imag])
                if not worst < args.tol:
                    return "fail", [f"integral vs closed form: relative "
                                    f"error {worst:.3e} >= tol "
                                    f"{args.tol:.3e} at t={t}, "
                                    f"theta={theta}"]
    details.append(f"Whittaker integral matches the closed form at weight "
                   f"{ell} on a 2x2 grid, worst relative error {worst:.3e}, "
                   f"worst quadrature error estimate {worst_est:.3e}")
    if args.out:
        write_csv(args.out,
                  ["v", "t", "theta", "num_re", "num_im", "closed_re",
                   "closed_im"], rows)
        details.append(f"wrote {args.out}")
    details.append({"quadrature": {"nodes": whittaker.GK_NODES * intervals,
                                   "intervals": intervals}})
    return "pass", details


# q_poincare counts the pairs of each fold pair on the fold split.  On a
# 2 vCPU host, poincare --key 1,0,1 --weight 16 takes 1.0 s and 122 MB
# peak RSS at --bound 2 (a fresh process, median of 3), and q_poincare
# alone 16 s but 1,140 MB at radius 3 (358,014 groups, whose symmetric
# powers also grow with the weight), so a radius above 2 is refused before
# any work.
_MAX_POINCARE_RADIUS = 2


def cmd_poincare(args):
    import numpy as np
    if args.bound > _MAX_POINCARE_RADIUS:
        raise ValueError(f"radius {args.bound} is above "
                         f"{_MAX_POINCARE_RADIUS}, the largest radius "
                         f"allowed (the memory grows as groups x weight, "
                         f"over 1 GB at radius 3)")
    if args.weight > _MAX_WEIGHT:
        raise ValueError(f"weight {args.weight} is above {_MAX_WEIGHT}, the "
                         f"largest weight allowed (the cost grows as "
                         f"groups x weight^2)")
    a, b, c = args.key
    # At high weight the symmetric powers overflow; the resulting inf or
    # nan fails the check below, so numpy need not also warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        res = whittaker.q_poincare(GramTriple(a, b, c), args.weight,
                                   args.bound)
    comps = res.components
    finite = np.isfinite(comps)
    if not finite.all():
        return "fail", [f"component v={int(np.argmin(finite)) - args.weight}"
                        f" is not finite: the weight-{args.weight} terms "
                        f"overflow double precision"]
    finite = np.isfinite(res.shell_sup)
    if not finite.all():
        return "fail", [f"the sup-norm of shell {int(np.argmin(finite)) + 1}"
                        f" is not finite: the weight-{args.weight} terms "
                        f"overflow double precision"]
    rows = [[v, comps[v + args.weight].real, comps[v + args.weight].imag]
            for v in range(-args.weight, args.weight + 1)]
    details = [f"Fourier coefficient at ({a},{b},{c}), weight {args.weight},"
               f" radius {args.bound}; outermost shell sup-norm "
               f"{_g17(res.shell_sup[-1])}",
               {"pairs": res.pairs, "groups": res.groups,
                "fold_pairs": res.fold_pairs,
                "shell_sup": list(res.shell_sup)}]
    if args.bound >= 2:
        # the convergence figure; undefined after an empty shell
        last, prev = res.shell_sup[-1], res.shell_sup[-2]
        details[1]["shell_ratio"] = last / prev if prev else None
    if args.out:
        write_csv(args.out, ["v", "re", "im"], rows)
        details.append(f"wrote {args.out}")
    else:
        details.append({"components": [[r[0], _g17(r[1]), _g17(r[2])]
                                       for r in rows]})
    return "pass", details


def cmd_synth(args):
    table = synth_table(args.kind, args.seed, args.bound, args.weight)
    write_table(table, args.out)
    return "pass", [f"wrote {args.out} ({len(table.entries)} keys, kind "
                    f"{args.kind}, seed {args.seed}, bound {args.bound})"]


# --- argument parsing and report emission ------------------------------------------

def _tolerance(s: str) -> float:
    tol = float(s)
    if not tol > 0:
        raise argparse.ArgumentTypeError("expected a number > 0")
    return tol


def _int_range(what: str, lo: int, hi: Optional[int] = None):
    """An argparse type for an integer in lo..hi (no upper end if hi is
    None); a value outside is a usage error that names the range."""
    def parse(s: str) -> int:
        v = int(s)
        if v < lo or (hi is not None and v > hi):
            raise argparse.ArgumentTypeError(
                f"expected {what} >= {lo}" if hi is None
                else f"expected {what} between {lo} and {hi}")
        return v
    parse.__name__ = "int"      # argparse's "invalid int value" message
    return parse


# The K-Bessel row overflows at every point of whittaker's grid from
# weight 198 on, so a larger weight can only fail, after evaluating arrays
# of 2 * weight + 1 components per quadrature node.
_MAX_WEIGHT = 200
_weight = _int_range("a weight", 0, _MAX_WEIGHT)

# reduce draws triples with entries up to its bound and tests
# b^2 - 4ac for squarefreeness by trial division up to about 2 bound:
# 0.6 s for 3 pairs at 10^6, ten times that for each further power of 10.
_MAX_REDUCE_BOUND = 10 ** 6
_count = _int_range("a count", 0)
_positive = _int_range("a bound", 1)

# The smallest discriminant 4ac - b^2 of a positive definite triple:
# 3, at (1, 1, 1).  A lift to a smaller bound has no keys.
_MIN_DISC = 3


def _triple(s: str) -> Tuple[int, int, int]:
    parts = s.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected a,b,c")
    return tuple(int(p) for p in parts)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="octolift",
        description="Exact and numeric verification pipelines for the "
                    "octonionic lift package.")
    # a subcommand's name runs cmd_<name>, see _command
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("oct-check", help="octonion arithmetic "
                        "identities on random exact cases")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--bound", type=_count, default=1000,
                    help="number of random cases, >= 0")

    sp = sub.add_parser("triality-verify", help="isomorphism, Cartan, "
                        "triality-triple and cube suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--bound", type=_count, default=100,
                    help="number of random triples/cubes, >= 0")

    sp = sub.add_parser("lift", help="classical genus-2 lift of a "
                        "halfintegral table")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--weight", type=_int_range("a weight", 1),
                    required=True, help="even weight ell, >= 1")
    sp.add_argument("--bound", type=_positive, required=True,
                    help=f"discriminant bound, >= 1 (keys start at "
                    f"{_MIN_DISC})")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("theta-star", help="tabulate the quaternionic "
                        "lift of a siegel table")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--bound", type=_positive, required=True,
                    help="det bound, >= 1")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("maass-check", help="coefficient membership "
                        "conditions on a quaternionic table")
    sp.add_argument("--in", dest="infile", required=True)

    sp = sub.add_parser("fj", help="extract Fourier-Jacobi coefficients "
                        "from a quaternionic table")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("dirichlet", help="Dirichlet-series "
                        "factorization check on a siegel table (lifted "
                        "first) or a quaternionic table")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--bound", type=_positive, default=12,
                    help="series truncation, >= 1")
    sp.add_argument("--count", type=_int_range("a count", 1), default=5,
                    help="number of strongly primitive keys to test, >= 1")
    sp.add_argument("--seed", type=int, default=None,
                    help="shuffle key choice (default: first keys)")

    sp = sub.add_parser("reduce", help="canonical-form reduction of "
                        "random vector pairs in the split rank-8 lattice")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=_count, default=25,
                    help="number of random pairs, >= 0")
    sp.add_argument("--bound", type=_int_range("a bound", 1,
                                               _MAX_REDUCE_BOUND),
                    default=6, help="entry bound for the random Gram "
                    f"triples, 1 <= bound <= {_MAX_REDUCE_BOUND}")

    sp = sub.add_parser("whittaker", help="Bessel-sum identity and "
                        "archimedean integral vs closed form")
    sp.add_argument("--weight", type=_weight, default=4,
                    help=f"weight ell, 0 <= ell <= {_MAX_WEIGHT}")
    sp.add_argument("--tol", type=_tolerance, default=1e-6,
                    help="relative error bound, > 0 (inf allowed)")
    sp.add_argument("--out", default=None, help="CSV output path")

    sp = sub.add_parser("poincare", help="Fourier coefficient of the "
                        "vector-valued series by lattice-point summation")
    sp.add_argument("--key", type=_triple, default=(1, 0, 1),
                    help="Gram triple a,b,c")
    sp.add_argument("--weight", type=int, default=16)
    sp.add_argument("--bound", type=int, default=1,
                    help="summation radius")
    sp.add_argument("--out", default=None, help="CSV output path")

    sp = sub.add_parser("synth", help="deterministic synthetic "
                        "coefficient table")
    sp.add_argument("--kind", choices=KINDS, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--bound", type=_positive, default=36,
                    help="key bound, >= 1")
    sp.add_argument("--weight", type=int, default=10)
    sp.add_argument("--out", required=True)

    return p


def emit(report: dict) -> None:
    try:
        json.dump(report, sys.stdout, indent=1, default=str)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early.  Point stdout at the null device so that
        # the interpreter's own flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process: parse_args keeps no
    state between calls."""
    return build_parser()


def _command(name: str):
    """The cmd_* function of a subcommand, looked up when it runs, so that
    a rebinding of the module attribute takes effect."""
    return globals()["cmd_" + name.replace("-", "_")]


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    seed = getattr(args, "seed", None)
    try:
        status, details = _command(args.command)(args)
    except (TableError, InsufficientTableError, ValueError, OSError) as e:
        status, details = "error", [f"{type(e).__name__}: {e}"]
    except Exception as e:
        # Any other failure is a bug; it is reported with the place it was
        # raised, never as a traceback.
        where = traceback.extract_tb(e.__traceback__)[-1]
        status, details = "error", [
            f"internal error {type(e).__name__}: {e} (raised at "
            f"{os.path.basename(where.filename)}:{where.lineno})"]
    emit({"command": args.command, "status": status, "details": details,
          "seed": seed,
          "timings": {"total_s": round(time.monotonic() - start, 6)}})
    return {"pass": 0, "fail": 1}.get(status, 2)


if __name__ == "__main__":
    sys.exit(main())
