"""Command-line front end: JSON coefficient tables in and out, one subcommand
per verification pipeline, machine-readable JSON reports.

Table file format (exact data only, no floats):

    {"kind": "halfintegral" | "siegel" | "quaternionic",
     "weight": <int>,
     "entries": [{"key": <key>, "re": "p/q", "im": "p/q"}, ...]}

where <key> is an integer n (halfintegral), a triple [a, b, c] (siegel), or a
pair of 2x2 integer matrices (quaternionic).  Values are Gaussian rationals:
"re" and "im" (each "0" when absent) are strings of the one form the
writer writes, -?[0-9]+(?:/[0-9]+)?: an integer n or a fraction n/d of
ASCII digits with an optional leading minus, d nonzero and each integer
within Python's digit limit (4300 by default).  Any other value is a data
error that names the entry and the value.  Written tables hold the kind
and weight on the first line and one entry per line, each value in lowest
terms.  Numeric results (whittaker, poincare) are written as CSV with 17
significant digits.

Report format, emitted as JSON on standard output by every subcommand:

    {"command": ..., "status": "pass" | "fail" | "error",
     "details": [...], "seed": ..., "timings": {"total_s": ...}}

Exit code 0 on pass, 1 on fail, 2 on usage or data errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import os
import random
import re
import reprlib
import sys
import time
import traceback
from itertools import chain, count, repeat
from math import exp, gcd, isfinite, isqrt, pi
from operator import itemgetter
from typing import List, Optional, Tuple

from .coset import (GramTriple, breve, gram, is_strongly_primitive,
                    reduce_gram)
from .lifts import (HalfIntegralTable, InsufficientTableError, QuatTable,
                    SiegelTable, classical_maass_check, classical_maass_lift,
                    dirichlet_factor_check, fj_pair,
                    maass_membership, reduced_triples, require_disc,
                    spezialschar_keys, theta_star_table)
from .scalar import GaussRational, _set_d, _set_p, _set_q


def _lazy(name: str):
    """The package module name (".m"), registered in sys.modules but
    executed at its first attribute access; or the module already
    registered under that name, so that every caller shares one copy.
    The table commands never touch the lazy modules, so a process that
    runs only them loads no numpy.  An import of the module elsewhere
    (`from octolift import m`, `import octolift.m`) loads it at once, as
    it would without this (see octolift.__getattr__)."""
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

def _parse_int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TableError(f"{where}: expected an integer, "
                         f"got {reprlib.repr(x)}")
    return x


def _not_an_int(i: int, parts) -> TableError:
    bad = next(e for e in parts if type(e) is not int)
    return TableError(f"entries[{i}]: expected an integer, "
                      f"got {reprlib.repr(bad)}")


# The key parsers take entries[i]'s JSON key and return the table key.
# json.load gives exact int and list types, so a bool, a float or a tuple is
# no integer or list here; the diagnostic is built only when the key is
# rejected, and it shows the JSON shortened by reprlib, as a value is.

def _int_key(key, i: int) -> int:
    if type(key) is int:
        return key
    raise _not_an_int(i, (key,))


def _triple_key(key, i: int) -> GramTriple:
    if type(key) is not list or len(key) != 3:
        raise TableError(f"entries[{i}]: expected a triple [a, b, c]")
    a, b, c = key
    if type(a) is int and type(b) is int and type(c) is int:
        # GramTriple(a, b, c), skipping the named tuple's Python __new__
        return tuple.__new__(GramTriple, key)
    raise _not_an_int(i, key)


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
                     f"got {reprlib.repr(x)}")


def _pair_key(key, i: int):
    if type(key) is not list or len(key) != 2:
        raise TableError(f"entries[{i}]: expected a pair of 2x2 matrices")
    return _parse_mat2(key[0], i), _parse_mat2(key[1], i)


# The key column parsers take the list of every entry's JSON key and return
# the table keys in order, or None when some key would be rejected.  A
# whole column of keys is checked by the sets of its types, lengths and
# leaf types.

def _int_keys(keys):
    return keys if set(map(type, keys)) <= {int} else None


def _triple_keys(keys):
    if (set(map(type, keys)) <= {list} and set(map(len, keys)) <= {3}
            and set(map(type, chain.from_iterable(keys))) <= {int}):
        # GramTriple(a, b, c) for each key, skipping the named tuple's
        # Python __new__
        return map(tuple.__new__, repeat(GramTriple), keys)
    return None


def _pair_keys(keys):
    try:
        return list(map(_pair_key, keys, count()))
    except TableError:
        return None


# The key writers give a table key's JSON text as json.dumps writes it.

def _triple_text(t: GramTriple) -> str:
    a, b, c = t
    return f"[{a}, {b}, {c}]"


def _pair_text(lam) -> str:
    ((a, b), (c, d)), ((e, f), (g, h)) = lam
    return f"[[[{a}, {b}], [{c}, {d}]], [[{e}, {f}], [{g}, {h}]]]"


# Every table key is an int or a nested tuple of ints, so it sorts as the
# file lists it.  Each kind has a table class, a key parser and a key
# writer.
TABLES = {cls.kind: cls
          for cls in (HalfIntegralTable, SiegelTable, QuatTable)}
KINDS = tuple(TABLES)
_KEY_PARSERS = {"halfintegral": _int_key, "siegel": _triple_key,
                "quaternionic": _pair_key}
_KEY_COLUMNS = {"halfintegral": _int_keys, "siegel": _triple_keys,
                "quaternionic": _pair_keys}
_KEY_WRITERS = {"halfintegral": str, "siegel": _triple_text,
                "quaternionic": _pair_text}

# A value string as the writer writes it, and the one form the reader
# accepts: an integer or a fraction of ASCII digits, with an optional minus
# sign.
_WRITTEN = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _parse_ratio(s, where: str) -> Tuple[int, int]:
    """(n, d) in lowest terms with d > 0 for a value string of the written
    shape; any other value is a TableError naming where and the value,
    shortened by reprlib."""
    if type(s) is not str:
        raise TableError(f"{where}: rational values must be strings, "
                         f"got {type(s).__name__}")
    if not _WRITTEN.fullmatch(s):
        raise TableError(f"{where}: bad rational string {reprlib.repr(s)}: "
                         f"expected n or n/d in ASCII digits, with an "
                         f"optional leading minus")
    n, _, d = s.partition("/")
    try:
        n, d = int(n), int(d or 1)
    except ValueError:
        raise TableError(f"{where}: {reprlib.repr(s)} has an integer of more "
                         f"than {sys.get_int_max_str_digits()} digits, "
                         f"Python's limit for string-to-integer conversion")
    if not d:
        raise TableError(f"{where}: zero denominator in {reprlib.repr(s)}")
    g = gcd(n, d)
    return n // g, d // g


_object_new = object.__new__


def _value(re_: Tuple[int, int], im: Tuple[int, int]) -> GaussRational:
    """a/b + i c/d from (a, b) and (c, d) in lowest terms with b, d > 0.
    Over the common denominator l = lcm(b, d) the value is already in
    lowest terms: a prime power exactly dividing l exactly divides b or d,
    so it does not divide that part's numerator."""
    (a, b), (c, d) = re_, im
    if b != d:
        g = gcd(b, d)
        a, c, b = a * (d // g), c * (b // g), b // g * d
    # scalar._new(a, c, b), without its call
    v = _object_new(GaussRational)
    _set_p(v, a)
    _set_q(v, c)
    _set_d(v, b)
    return v


def _entries_by_column(kind: str, raw: list):
    """The entries dict of raw, built a column at a time, or None when
    some entry would be rejected: the key, re and im columns are taken
    whole, the keys are checked by the types they hold, each distinct
    value string is parsed once, and a duplicate key shows as a dict
    shorter than raw."""
    if not set(map(type, raw)) <= {dict}:
        return None
    try:
        keys = list(map(itemgetter("key"), raw))
    except KeyError:
        return None
    keys = _KEY_COLUMNS[kind](keys)
    if keys is None:
        return None
    res = list(map(dict.get, raw, repeat("re"), repeat("0")))
    ims = list(map(dict.get, raw, repeat("im"), repeat("0")))
    try:
        # a value that is no string is unhashable or fails _parse_ratio
        ratios = {s: _parse_ratio(s, "") for s in {*res, *ims}}
    except (TableError, TypeError):
        return None
    ratio = ratios.__getitem__
    entries = dict(zip(keys, map(_value, map(ratio, res), map(ratio, ims))))
    return entries if len(entries) == len(raw) else None


def _entries_by_entry(kind: str, raw: list) -> dict:
    """The entries dict of raw, one entry at a time in file order; the
    first entry rejected raises its TableError."""
    parse_key = _KEY_PARSERS[kind]
    entries = {}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "key" not in entry:
            raise TableError(f"entries[{i}]: each entry needs a 'key'")
        key = parse_key(entry["key"], i)
        if key in entries:
            raise TableError(f"entries[{i}]: duplicate key {entry['key']!r}")
        where = f"entries[{i}]"
        entries[key] = _value(_parse_ratio(entry.get("re", "0"), where),
                              _parse_ratio(entry.get("im", "0"), where))
    return entries


def parse_table(data):
    """JSON object -> HalfIntegralTable / SiegelTable / QuatTable.  The
    entries are checked and built a column at a time: every key at once,
    each distinct value string parsed once, each value built in one call.
    Only when some entry is rejected are the entries walked one at a time
    in file order, so the diagnostic names the first bad entry of the
    file."""
    if not isinstance(data, dict):
        raise TableError("table file must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise TableError(f"kind must be one of {KINDS}, got {kind!r}")
    weight = _parse_int(data.get("weight"), "weight")
    raw = data.get("entries")
    if not isinstance(raw, list):
        raise TableError("entries must be a list")
    entries = _entries_by_column(kind, raw)
    if entries is None:
        entries = _entries_by_entry(kind, raw)
    try:
        return TABLES[kind](weight, entries)
    except ValueError as e:
        raise TableError(f"invalid table: {e}")


def _ratio(n: int, d: int) -> str:
    """The value string of n/d for d > 0, in lowest terms."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def load_table(path: str):
    """The table in the file at path, decoded and built with the cyclic
    garbage collector paused.  The decoded JSON tree and the table built
    from it hold no reference cycles, so a collection while they grow
    could only traverse their objects, never free one; the collector's
    previous state is restored however the load ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
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
    finally:
        if enabled:
            gc.enable()


def write_table(table, path: str) -> None:
    """One JSON object: the kind and weight on the first line, then one
    entry per line, {"key": <key>, "re": "p/q", "im": "p/q"} with the keys
    in sorted order, so the file is deterministic and loads back as the
    table.  Each line is built from the key's and the value's integers,
    as json.dumps would write it: a value string needs no escaping."""
    key_text = _KEY_WRITERS[table.kind]
    lines = []
    try:
        for key, v in sorted(table.entries.items()):
            lines.append(f'\n{{"key": {key_text(key)}, '
                         f'"re": "{_ratio(v.p, v.d)}", '
                         f'"im": "{_ratio(v.q, v.d)}"}}')
    except ValueError:
        # str() of an integer longer than Python's digit limit
        raise TableError(f"cannot write the value at key "
                         f"{json.dumps(key)}: it has more than "
                         f"{sys.get_int_max_str_digits()} digits, Python's "
                         f"limit for integer-to-string conversion")
    with open(path, "w") as f:
        f.write(f'{{"kind": {json.dumps(table.kind)}, '
                f'"weight": {json.dumps(table.weight)}, "entries": [')
        f.write(",".join(lines))
        f.write("\n]}\n")


# --- synthetic tables ------------------------------------------------------------

def _random_gauss(rng: random.Random) -> GaussRational:
    """a/b + i c/d, drawn in that order."""
    a, b, c, d = (rng.randint(-9, 9), rng.randint(1, 4), rng.randint(-9, 9),
                  rng.randint(1, 4))
    return GaussRational.over(a * d, c * b, b * d)


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
    same = triality.phi_inv(imgs).eq_mask(basis)
    if not same.all():
        return "fail", [f"phi_inv(phi_iso(X)) != X at basis element "
                        f"{int(same.argmin())}"]
    details.append(f"phi bijective on the {n}-element basis")
    # all n x n pairs at once, by broadcasting a column against a row
    bad = triality.bracket_defects(
        triality.ge_bracket(basis[:, None], basis[None]), imgs)
    if bad.any():
        i, j = divmod(int(bad.argmax()), n)
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
        raise _no_keys("lift", args.bound)
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
    if phi.weight % 2:
        raise TableError(f"fj writes a siegel table, whose weight must be "
                         f"even; {args.infile} has weight {phi.weight}")
    entries, first = {}, {}
    for lam in phi.entries:
        # a key (((a, 0), (b, 1)), ((0, -1), (c, 0))) is fj_pair((a, b, c))
        t = GramTriple(lam[0][0][0], lam[0][1][0], lam[1][1][0])
        if lam == fj_pair(t):
            key, v = reduce_gram(t), phi.a(lam).conj()
            # a theta* lift reads one a_F for the whole class
            if entries.setdefault(key, v) != v:
                return "fail", [f"keys {_pair_text(first[key])} and "
                                f"{_pair_text(lam)} both reduce to the class "
                                f"{tuple(key)} but carry different "
                                f"coefficients"]
            first.setdefault(key, lam)
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
        # Choose strongly primitive pairs over the smallest reduced triples;
        # the check reads theta*(F) straight from F along the orbit lam . g
        # (|det g| <= bound).
        triples = sorted(reduced_triples(8), key=lambda t: (t.disc(), t))
        lams = list(dict.fromkeys(   # breve(t) = fj_pair(t) when a = 1
            f(t) for t in triples for f in (breve, fj_pair)))
        if args.seed is not None:
            random.Random(args.seed).shuffle(lams)
        lams = lams[:args.count]
        # disc S(lam . g) = disc S(lam) |det g|^2, and every a_F the check
        # reads is at S(lam . g) or a divisor gram of it, of smaller disc:
        # check the table before building any pair.
        require_disc(table, max(gram(lam).disc() * args.bound ** 2
                                for lam in lams))
    elif isinstance(table, QuatTable):
        lams = [lam for lam in sorted(table.entries)
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
        rep = dirichlet_factor_check(table, lam, args.bound)
        if not rep.ok:
            return "fail", [f"lambda={lam}: {rep.detail}"]
        details.append(f"lambda={lam}: {rep.detail}")
    if len(lams) < args.count:
        details.append(f"checked {len(lams)} of the {args.count} pairs "
                       f"requested: there are only {len(lams)} candidates")
    return "pass", details


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    for p in range(2, isqrt(n) + 1):
        if n % (p * p) == 0:
            return False
    return True


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
        g = orbits.random_isometry(lat, rng)
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
    points = []
    grid = [(t, theta) for t in (0.7, 1.3) for theta in (0.0, 0.6)]
    us = [whittaker.boost_u(theta) for _, theta in grid]
    # At high weight the K-Bessel row or the error estimate overflows; the
    # resulting inf or nan fails the check below, so numpy need not also
    # warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        checks = whittaker.archimedean_integral_checks(
            T, [(t, u) for (t, _), u in zip(grid, us)], ell)
    for (t, theta), u, (num, closed) in zip(grid, us, checks):
        worst_est = _worse(worst_est, num.err)
        # an inf or nan estimate as a string, which JSON can carry
        points.append({"t": t, "theta": theta,
                       "2-w": whittaker.line_shift(T, t, u),
                       "intervals": num.intervals,
                       "err": num.err if isfinite(num.err) else str(num.err)})
        for v in range(-ell, ell + 1):
            cn, cc = num.component(v), closed.component(v)
            worst = _worse(worst, abs(cn - cc) / max(abs(cc), 1e-300))
            rows.append([v, t, theta, cn.real, cn.imag, cc.real, cc.imag])
        if not worst < args.tol:
            return "fail", [f"integral vs closed form: relative error "
                            f"{worst:.3e} >= tol {args.tol:.3e} at t={t}, "
                            f"theta={theta}"]
    details.append(f"Whittaker integral matches the closed form at weight "
                   f"{ell} on a 2x2 grid, worst relative error {worst:.3e}, "
                   f"worst quadrature error estimate {worst_est:.3e}")
    if args.out:
        write_csv(args.out,
                  ["v", "t", "theta", "num_re", "num_im", "closed_re",
                   "closed_im"], rows)
        details.append(f"wrote {args.out}")
    intervals = sum(p["intervals"] for p in points)
    details.append({"quadrature": {"nodes": whittaker.GK_NODES * intervals,
                                   "intervals": intervals,
                                   "points": points}})
    return "pass", details


# q_poincare counts the pairs of each fold pair on the fold split and
# builds one symmetric power per orbit of its groups.  On a 2 vCPU host,
# poincare --key 1,0,1 --weight 16 takes 0.5-0.7 s and 71 MB peak RSS at
# --bound 2 (fresh processes, three runs in each of two checkouts; the
# peak can move with the heap layout), and q_poincare alone 13-15 s and
# 347 MB at radius 3, where its 358,014 groups and their 90,949 powers
# are held at once, so a radius above 2 is refused before any work.
_MAX_POINCARE_RADIUS = 2


def cmd_poincare(args):
    import numpy as np
    if args.bound > _MAX_POINCARE_RADIUS:
        raise ValueError(f"radius {args.bound} is above "
                         f"{_MAX_POINCARE_RADIUS}, the largest radius "
                         f"allowed (at radius 3 the terms of all groups are "
                         f"built at once, 347 MB on 1,0,1)")
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
                "powers": res.powers, "fold_pairs": res.fold_pairs,
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
    if args.kind == "siegel" and args.bound < _MIN_DISC:
        raise _no_keys("synth --kind siegel", args.bound)
    table = synth_table(args.kind, args.seed, args.bound, args.weight)
    write_table(table, args.out)
    return "pass", [f"wrote {args.out} ({len(table.entries)} keys, kind "
                    f"{args.kind}, seed {args.seed}, bound {args.bound})"]


# --- argument parsing and report emission ------------------------------------------

def _tolerance(s: str) -> float:
    try:
        tol = float(s)
        if tol > 0:
            return tol
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected a number > 0")


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


# The K-Bessel row overflows at s = 0 at every point of whittaker's grid
# from weight 198 on (the error estimate in the first round from weight
# 180 on), so a larger weight can only fail, after evaluating arrays
# of 2 * weight + 1 components per quadrature node.  The bound does not
# make poincare cheap: its symmetric powers cost powers x weight^2 and
# its terms groups x weight, and poincare --key 2,0,2 --weight 200
# --bound 2 (63,992 groups, 16,410 powers) took 11-12 s at a 542 MB peak
# RSS (a fresh process on a 2-vCPU host).
_MAX_WEIGHT = 200
_weight = _int_range("a weight", 0, _MAX_WEIGHT)

# reduce draws triples with entries up to its bound and tests
# b^2 - 4ac for squarefreeness by trial division up to about 2 bound:
# 0.6 s for 3 pairs at 10^6, ten times that for each further power of 10.
_MAX_REDUCE_BOUND = 10 ** 6
_count = _int_range("a count", 0)
_positive = _int_range("a bound", 1)

# The smallest discriminant 4ac - b^2 of a positive definite triple:
# 3, at (1, 1, 1).  A siegel table to a smaller bound has no keys.
_MIN_DISC = 3


def _no_keys(command: str, bound: int) -> TableError:
    """The error of a command whose siegel table to a discriminant bound
    below _MIN_DISC would have no keys."""
    return TableError(f"{command} --bound {bound} yields no keys: the "
                      f"smallest discriminant is {_MIN_DISC}, so use "
                      f"--bound {_MIN_DISC} or more")


def _triple(s: str) -> Tuple[int, int, int]:
    parts = s.split(",")
    try:
        if len(parts) == 3:
            return tuple(int(p) for p in parts)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected three integers a,b,c")


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
    sp.add_argument("--weight", type=int, default=16,
                    help=f"even weight ell, 16 <= ell <= {_MAX_WEIGHT}")
    sp.add_argument("--bound", type=int, default=1,
                    help=f"summation radius, 1 <= radius <= "
                    f"{_MAX_POINCARE_RADIUS}")
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
