"""The coefficient engine: classical genus-2 Maass lift and relations, the
quaternionic theta* lift on Fourier coefficients, Spezialschar membership,
Fourier-Jacobi extraction, and the Dirichlet-series factorization check,
made in one pass over the orbit lambda.g.

All coefficient tables are ingested data (synthetic or user-supplied); the
identities verified here are exact combinatorial statements about the lift
formulas, so synthetic Gaussian-rational tables exercise every term of
them.  A check shows that a table satisfies those relations on the keys
it holds, not that the table is a lift: maass_membership compares a
strongly primitive key with breve of its exact gram, not with the other
keys of its GL2(Z) class, so a table whose primitive coefficients differ
within one class can pass it without being a theta* lift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import ClassVar, Dict, Iterable, List

from .coset import (GramTriple, IndexPair, breve, divisor_grams, divisors,
                    gram, hnf_right_cosets, is_strongly_primitive,
                    mat2_scale, pair_act, reduce_gram, row_hnf)
from .scalar import GaussRational, GZERO, weighted_sum


class InsufficientTableError(Exception):
    """A check or lift needed a coefficient the table does not contain.
    Raised instead of silently substituting zero, so identity checks can
    never pass vacuously."""


@dataclass(frozen=True)
class Report:
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _check_weight(ell: int, even: bool = True) -> None:
    """Reject a weight below 1, for which d^(ell - 1) is not an integer,
    and, if even is set, an odd one."""
    if ell < 1:
        raise ValueError(f"weight must be at least 1, got {ell}")
    if even and ell % 2:
        raise ValueError("weight must be even")


@dataclass(frozen=True)
class HalfIntegralTable:
    """Coefficients c(n) of a weight ell - 1/2 form in the plus space:
    c(n) = 0 unless n = 0 or 3 mod 4 (such n are simply absent)."""
    kind: ClassVar[str] = "halfintegral"
    weight: int
    entries: Dict[int, GaussRational] = field(default_factory=dict)

    def __post_init__(self):
        _check_weight(self.weight, even=False)
        for n in self.entries:
            if n < 0 or n % 4 not in (0, 3):
                raise ValueError(f"c({n}) must vanish (n != 0, 3 mod 4)")

    def c(self, n: int) -> GaussRational:
        if n % 4 not in (0, 3) or n < 0:
            return GZERO
        if n not in self.entries:
            raise InsufficientTableError(f"c({n}) not in table")
        return self.entries[n]


@dataclass(frozen=True)
class SiegelTable:
    """Genus-2 cusp form coefficients a_F(T) keyed by GL2(Z)-reduced
    positive definite triples; lookups canonicalize via reduction, and a
    singular triple reads 0.  Even weight is assumed throughout (so
    a_F(u^t T u) = a_F(T) for all u in GL2(Z))."""
    kind: ClassVar[str] = "siegel"
    weight: int
    entries: Dict[GramTriple, GaussRational] = field(default_factory=dict)
    max_disc: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Accept each key with the one test 0 <= b <= a <= c and a > 0.
        A positive semidefinite triple is its own reduce_gram iff
        0 <= b <= a <= c, and such a triple has 4ac - b^2 >= 4a^2 - a^2
        = 3a^2, so a > 0 makes it positive definite; conversely a positive
        definite triple has a > 0.  The diagnostic is built only for a
        rejected key.  The same walk records max_disc, the largest
        discriminant of a key (0 without keys), as a table's entries are
        not changed after it is built."""
        _check_weight(self.weight)
        top = 0
        for t in self.entries:
            a, b, c = t
            if 0 <= b <= a <= c and a > 0:
                if 4 * a * c - b * b > top:
                    top = 4 * a * c - b * b
                continue
            if not 0 <= b <= a <= c:
                psd = a >= 0 and c >= 0 and 4 * a * c - b * b >= 0
                raise ValueError(f"key {t} is not "
                                 + ("reduced" if psd
                                    else "positive semidefinite"))
            raise ValueError("cuspidal table keys must be pos. definite")
        object.__setattr__(self, "max_disc", top)

    def a(self, t: GramTriple) -> GaussRational:
        """One dict probe: every stored key is positive definite
        (__post_init__), so only a miss asks whether the reduced triple is
        singular."""
        key = reduce_gram(t)
        v = self.entries.get(key)
        if v is not None:
            return v
        if not key.is_positive_definite():
            return GZERO
        raise InsufficientTableError(f"a_F({key}) not in table")


@dataclass(frozen=True)
class QuatTable:
    """Quaternionic coefficients a_phi(lambda) keyed by exact index pairs;
    every key has positive definite Gram matrix (cuspidal support)."""
    kind: ClassVar[str] = "quaternionic"
    weight: int
    entries: Dict[IndexPair, GaussRational] = field(default_factory=dict)

    def __post_init__(self):
        _check_weight(self.weight, even=False)
        for lam in self.entries:
            # gram(lam) = (A, B, C) from the eight entries, as in coset.gram
            ((a1, b1), (c1, d1)), ((a2, b2), (c2, d2)) = lam
            A = a1 * d1 - b1 * c1
            B = a1 * d2 + a2 * d1 - b1 * c2 - b2 * c1
            if A <= 0 or 4 * A * (a2 * d2 - b2 * c2) <= B * B:
                raise ValueError(f"key {lam} has non-positive-definite gram")

    def a(self, lam: IndexPair) -> GaussRational:
        if lam not in self.entries:
            raise InsufficientTableError(f"a_phi({lam}) not in table")
        return self.entries[lam]


# --- classical genus-2 Maass lift (Sec. 2 machinery) --------------------------

def reduced_triples(discbound: int):
    """All reduced triples 0 <= b <= a <= c with 4ac - b^2 <= discbound
    (each has 4ac - b^2 >= 3a^2 > 0, so all are positive definite), in
    increasing (a, b, c) order."""
    out = []
    a = 1
    while 4 * a * a - a * a <= discbound:
        for b in range(a + 1):
            c = a
            while 4 * a * c - b * b <= discbound:
                out.append(GramTriple(a, b, c))
                c += 1
        a += 1
    return out


def classical_maass_lift(c: HalfIntegralTable, ell: int,
                         bound: int) -> SiegelTable:
    """A_F(a,b,c) = sum_{d | gcd(a,b,c)} d^(ell-1) c((4ac-b^2)/d^2) on all
    reduced positive definite triples of discriminant <= bound.  The
    largest n <= bound with n = 0, 3 mod 4 is read at the key (1, 0, n/4)
    or (1, 1, (n+1)/4), so a table whose keys stop below it fails before
    any triple is built."""
    _check_weight(ell)
    n = bound if bound % 4 == 3 else bound - bound % 4
    top = max(c.entries, default=0)
    if n > max(top, 2):
        have = (f"stops at c({top}): --bound {top} is the largest bound it "
                f"supports" if top else "has no key above 0")
        raise InsufficientTableError(
            f"the lift reads c({n}), but the table {have}")
    entries = {}
    for t in reduced_triples(bound):
        entries[t] = weighted_sum((d ** (ell - 1), c.c(t.disc() // (d * d)))
                                  for d in divisors(gcd(t.a, t.b, t.c)))
    return SiegelTable(ell, entries)


def classical_maass_check(F: SiegelTable) -> Report:
    """Verify a_F(a,b,c) = sum_{d | gcd(a,b,c)} d^(ell-1) a_F(ac/d^2, b/d, 1)
    for every key of the table, in table order, naming the first key where
    it fails."""
    ell = F.weight
    for t, x in F.entries.items():
        ac = t.a * t.c
        rhs = weighted_sum(
            (d ** (ell - 1), F.a(GramTriple(ac // (d * d), t.b // d, 1)))
            for d in divisors(gcd(t.a, t.b, t.c)))
        if rhs != x:
            return Report(False, f"relation fails at {t}")
    return Report(True, f"{len(F.entries)} keys verified")


# --- the quaternionic theta* lift ---------------------------------------------

def _family(detbound: int, extra_pairs: Iterable[IndexPair], primitive,
            general) -> Dict[IndexPair, object]:
    """The theta* key family as a dict in family order: a key that enters
    as strongly primitive of gram t maps to primitive(t), and a multiple or
    extra pair lambda to general(divisor_grams(lambda)).

    For every reduced positive definite t with det [[a,b/2],[b/2,c]] <=
    detbound (i.e. disc <= 4*detbound) come breve(t) and fj_pair(t), both
    strongly primitive with gram exactly t, so neither needs divisor grams
    (the two coincide when a = 1); then the imprimitive multiples
    d*breve(t) that stay within the bound.  The extra pairs follow.  Each
    multiple or extra pair not yet in the family enters with its divisor
    grams, and for each divisor gram t' the breve-closure key breve(t')
    (what membership checks will look up), strongly primitive of gram t'.
    A key met again keeps its first place: breve(t) and fj_pair(t) map to
    primitive(t) wherever they enter, so writing one again changes no
    value, and a multiple or extra pair already in the family is
    skipped."""
    out = {}

    def enter(lam):
        if lam in out:
            return
        grams = divisor_grams(lam)
        out[lam] = general(grams)
        for _n, t in grams:
            key = breve(t)
            if key not in out:
                out[key] = primitive(t)

    discbound = 4 * detbound
    for t in reduced_triples(discbound):
        lam = breve(t)
        out[lam] = out[fj_pair(t)] = primitive(t)
        d = 2
        while d ** 4 * t.disc() <= discbound:   # gram(d*lam) = d^2 t
            enter((mat2_scale(d, lam[0]), mat2_scale(d, lam[1])))
            d += 1
    for lam in extra_pairs:
        enter(lam)
    return out


def _no_value(_source) -> None:
    return None


def spezialschar_keys(detbound: int) -> List[IndexPair]:
    """The standard key family for a theta* coefficient table, sorted: the
    keys of _family(detbound, ()), which theta_star_table tabulates."""
    return sorted(_family(detbound, (), _no_value, _no_value))


def require_disc(F: SiegelTable, need: int) -> None:
    """Raise InsufficientTableError unless F's keys reach discriminant
    need, the largest one theta* will read."""
    have = F.max_disc
    if need > have:
        raise InsufficientTableError(
            f"theta* reads a_F up to discriminant {need}, but the table "
            f"stops at {have}: build the table to discriminant {need}")


def theta_star_coefficient(F: SiegelTable, grams) -> GaussRational:
    """a_{theta*(F)}(lambda) = sum over the divisor cosets (r, mu) of lambda
    of |det r|^(ell-1) conj(a_F(S(mu))), read from grams =
    divisor_grams(lambda), the (|det r|, S(mu)) of those cosets.  A strongly
    primitive lambda has the one coset r = 1 and reads conj a_F(S(lambda))."""
    if len(grams) == 1:
        return F.a(grams[0][1]).conj()
    ell = F.weight
    return weighted_sum((n ** (ell - 1), F.a(t)) for n, t in grams).conj()


def theta_star_table(F: SiegelTable, detbound: int,
                     extra_pairs: Iterable[IndexPair] = ()) -> QuatTable:
    """Tabulate theta* over _family(detbound, extra_pairs), the keys in
    family order (write_table sorts them on disk).  A strongly primitive
    key of gram t reads conj a_F(t): for a reduced t, the gram of breve(t)
    and fj_pair(t), that is conj F.entries[t] at once, as F's keys are the
    reduced triples, and any other t goes through F.a and its reduction.
    A multiple or extra pair reads theta_star_coefficient of its divisor
    grams.  A key reads a_F at discriminants up to disc S(lambda) (each
    S(mu) has disc S(lambda) / |det r|^2, and a closure key's disc is one
    of those).  The largest base pair is breve(1, 0, detbound), of disc
    4*detbound, so a table that stops below that or below an extra pair's
    disc fails here, before any base pair is built; a table with a hole
    below its largest disc names the hole's triple.  A pair whose stack
    has rank below 2 raises ValueError (its divisor cosets are infinite),
    and so does one whose gram is not positive definite."""
    extra = list(extra_pairs)
    require_disc(F, max([4 * detbound]
                        + [gram(lam).disc() for lam in extra]))
    get = F.entries.get

    def primitive(t):
        v = get(t)
        return (F.a(t) if v is None else v).conj()

    return QuatTable(F.weight, _family(
        detbound, extra, primitive,
        lambda grams: theta_star_coefficient(F, grams)))


# --- Maass Spezialschar membership --------------------------------------------

def a_prim(phi: QuatTable, lam: IndexPair) -> GaussRational:
    """a_phi^prim(lambda) = a_phi(breve(S(lambda))); well defined for tables
    satisfying membership condition (i)."""
    return phi.a(breve(gram(lam)))


def maass_membership(phi: QuatTable) -> Report:
    """Check the Spezialschar coefficient condition on every table key, in
    table order, naming the first key that fails: a_phi(lambda) = sum over
    divisor cosets (r, mu) of |det r|^(ell-1) a_phi^prim(mu), read as
    a_phi(breve(S(mu))) with S(mu) from divisor_grams.  This is condition
    (ii); condition (i), that strongly primitive keys with equal gram carry
    equal coefficients, is its case r = 1: a strongly primitive key of gram
    t has the one divisor coset r = 1, so its condition is the one term
    a_phi(lambda) = a_phi(breve(t)), and its failure is reported as one of
    condition (i) at t."""
    ell = phi.weight
    for lam, x in phi.entries.items():
        dg = divisor_grams(lam)
        if len(dg) == 1:
            t = dg[0][1]
            if phi.a(breve(t)) != x:
                return Report(False, f"condition (i) fails at gram {t}")
        elif weighted_sum((n ** (ell - 1), phi.a(breve(t)))
                          for n, t in dg) != x:
            return Report(False, f"condition (ii) fails at {lam}")
    return Report(True, f"{len(phi.entries)} keys verified")


# --- Fourier-Jacobi extraction -------------------------------------------------

def fj_pair(t: GramTriple) -> IndexPair:
    """The strongly primitive pair ([[a,0],[b,1]], [[0,-1],[c,0]]) with gram
    equal to t."""
    return (((t.a, 0), (t.b, 1)), ((0, -1), (t.c, 0)))


def fj_extract(phi: QuatTable, t: GramTriple) -> GaussRational:
    """b_phi([a,b,c]) = conj(a_phi(([[a,0],[b,1]], [[0,-1],[c,0]])))."""
    return phi.a(fj_pair(t)).conj()


# --- Dirichlet series -----------------------------------------------------------

def dirichlet_factor_check(table: QuatTable | SiegelTable, lam: IndexPair,
                           bound: int) -> Report:
    """Verify, coefficient by coefficient up to n <= bound, that
    D_phi = (sum_r |det r|^-s) * (sum_g a_phi^prim(lambda.g)/|det g|^(s+ell-1))
    as truncated Dirichlet series, for a strongly primitive lambda.  The
    table is a QuatTable phi, or a SiegelTable F, which stands for
    phi = theta*(F) with no theta* table built: a_phi(mu) is
    theta_star_coefficient(F, divisor_grams(mu)), and a_phi^prim(mu), the
    coefficient of the strongly primitive breve(S(mu)), is conj a_F(S(mu)),
    S(mu) being the first divisor gram (r = 1).  One pass over the orbit
    mu = lambda.g (g in hnf_right_cosets(n), n <= bound) adds a_phi(mu) /
    n^(ell-1) to D_phi(n) and a_phi^prim(mu) / n^(ell-1) to P(n), and
    confirms the property behind the rearrangement: every divisor coset r
    of mu has |det r| dividing n.  Then D_phi(n) must equal
    sum_{d | n} sigma_1(d) P(n/d).  A coefficient missing from the table
    raises InsufficientTableError naming lambda and the largest bound the
    table supports for it.

    The divisibility needs no enumeration of the divisor cosets.  With
    row_hnf(mu) = (p, q, t), a coset r is admissible iff its row lattice
    Z^2 r contains R = Z(p, q) + Z(0, t) (see coset.divisor_cosets), so
    |det r| = [Z^2 : Z^2 r] divides [Z^2 : R] = p t; and r = HNF(R) is
    admissible with |det r| = p t.  So every |det r| divides n iff p t
    divides n, and p t is the one |det r| to name when it does not."""
    if not is_strongly_primitive(lam):
        raise ValueError("dirichlet_factor_check needs a strongly "
                         "primitive pair")
    siegel = isinstance(table, SiegelTable)
    full: Dict[int, GaussRational] = {}
    prim: Dict[int, GaussRational] = {}
    misfit = None
    for n in range(1, bound + 1):
        s_full, s_prim = [], []
        for g in hnf_right_cosets(n):
            mu = pair_act(lam, g)
            try:
                if siegel:
                    grams = divisor_grams(mu)
                    s_full.append((1, theta_star_coefficient(table, grams)))
                    s_prim.append((1, table.a(grams[0][1]).conj()))
                else:
                    s_full.append((1, table.a(mu)))
                    s_prim.append((1, a_prim(table, mu)))
            except InsufficientTableError as e:
                largest = (f"--bound {n - 1} is the largest bound" if n > 1
                           else "no bound is")
                raise InsufficientTableError(
                    f"{e} (needed by lambda={lam} at |det g|={n}): "
                    f"{largest} this table supports for lambda") from e
            if misfit is None:
                p, _q, t = row_hnf(mu)
                if n % (p * t):
                    misfit = f"|det r|={p * t} does not divide n={n}, g={g}"
        scale = n ** (table.weight - 1)
        full[n] = weighted_sum(s_full) / scale
        prim[n] = weighted_sum(s_prim) / scale
    if misfit is not None:
        return Report(False, f"coset divisibility fails: {misfit}")
    for n in range(1, bound + 1):
        rhs = weighted_sum((sum(divisors(d)), prim[n // d])
                           for d in divisors(n))
        if full[n] != rhs:
            return Report(False, f"factorization fails at n={n}")
    return Report(True, f"verified to n={bound}")
