"""The split 8-dimensional quadratic space V in the b-basis, the Lie algebra
wedge^2 V = so(8) acting on it, its bracket, trace form and Cartan
involution, and the su(2) triple (e+, h+, f+) of the compact construction.

Scalars are Gaussian rationals (scalar.GaussRational): integers
(p + i q) / d in lowest terms, the form a Bivector holds for a whole
matrix over one denominator, and _parts reads them as they are held.
Coordinates are stored in the order (b1, b2, b3, b4, b-4, b-3, b-2, b-1);
the Gram matrix is the anti-diagonal identity, i.e. (index i, index 7-i)
pair to 1.

An element of wedge^2 V is stored as its action matrix on V over Z[i]:
int64 arrays re, im of shape (..., 8, 8) over one positive denominator.
Leading axes index a batch, so each operation applies to many elements in
one call.  Every product is bounded first.  Elementwise int64 work must
stay below 2^62 (fits); an array contraction runs on float64 BLAS
(exact_matmul) and must keep the sum of |terms| of every output entry below
2^53, where float64 holds every integer exactly.  An operation whose
result could leave its range raises OverflowError rather than wrap or
round.

The vectors u1, u2, v1, v2 of the compact su(2) construction each carry a
factor 1/sqrt(2); every element built from them here (e+, h+, f+) only
uses products of pairs of such vectors, so all sqrt(2)'s are multiplied out
and scalars stay Gaussian rational.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Tuple

import numpy as np

# The scalar type lives in scalar; it stays importable from here.
from .scalar import GZERO, GaussRational, _coerce  # noqa: F401

DIM = 8
# wedge basis index pairs i<j, fixed total order.
PAIRS = tuple(combinations(range(DIM), 2))


# --- exact integer arrays ----------------------------------------------------

_LIMIT = 2 ** 62
# Every integer of absolute value at most 2^53 is a float64.
_FLOAT_LIMIT = 2 ** 53


def amax(*arrays) -> int:
    """Largest absolute entry over the given integer arrays."""
    return max((max(int(a.max()), -int(a.min())) for a in arrays if a.size),
               default=0)


def fits(bound: int) -> None:
    """Raise OverflowError unless integers up to bound in absolute value are
    safe in int64; called with a bound on a result before computing it."""
    if bound >= _LIMIT:
        raise OverflowError("exact int64 arithmetic would overflow")


def fits_float(bound: int) -> None:
    """Raise OverflowError unless integers up to bound in absolute value are
    exact in float64; called with a bound on a result before computing it."""
    if bound >= _FLOAT_LIMIT:
        raise OverflowError("exact float64 arithmetic would round")


def exact_matmul(a, b, bound: int) -> np.ndarray:
    """a @ b for integer-valued arrays a, b (any integer or float dtype),
    computed in float64 by BLAS and returned in float64, given bound >= the
    sum over k of |a[..., i, k] b[..., k, j]| for every output entry (i, j);
    raises OverflowError unless bound < 2^53 (fits_float).

    The result is exact.  A nonzero term is a product of integers each of
    absolute value at most the term's, so below 2^53: both factors convert
    to float64 exactly, and so does their product, whether it is rounded
    once alone or fused into the next addition.  The classical product
    that BLAS computes adds those terms in some order, blocked or not; every
    partial sum is a sum of some of them, an integer of absolute value at
    most bound < 2^53, so no addition rounds either.  A zero term stays
    zero even where an operand did not convert exactly."""
    fits_float(bound)
    return np.matmul(a, b, dtype=np.float64)


def reduced(den: int, *nums):
    """(den, *nums) divided by the gcd of den and every entry of nums."""
    g = den
    for a in nums:
        g = int(np.gcd.reduce(a, axis=None, initial=g))
    if g == 1:
        return (den,) + nums
    return (den // g,) + tuple(a // g for a in nums)


def _parts(x) -> Tuple[int, int, int]:
    """(re, im, den) integers with x = (re + i im) / den."""
    if isinstance(x, (int, np.integer)):
        return int(x), 0, 1
    x = _coerce(x)
    return x.p, x.q, x.d


def int_parts(xs):
    """int64 arrays re, im and an int den with xs[k] = (re[k] + i im[k]) /
    den, for a flat sequence of scalars."""
    parts = [_parts(x) for x in xs]
    den = lcm(*(d for _, _, d in parts))
    return (np.array([r * (den // d) for r, _, d in parts], dtype=np.int64),
            np.array([i * (den // d) for _, i, d in parts], dtype=np.int64),
            den)


# --- so(8) as action matrices ------------------------------------------------

@dataclass(frozen=True, eq=False)
class Bivector:
    """Element of wedge^2 V, stored as its action matrix (re + i im) / den on
    V: re, im int64 arrays of shape (..., 8, 8), den a positive int shared
    by the batch."""
    re: np.ndarray
    im: np.ndarray
    den: int = 1

    @staticmethod
    def of(re, im, den: int = 1) -> "Bivector":
        """(re + i im) / den with the common factor divided out."""
        den, re, im = reduced(den, re, im)
        return Bivector(re, im, den)

    def __getitem__(self, index) -> "Bivector":
        """Batch element(s) at index."""
        return Bivector.of(self.re[index], self.im[index], self.den)

    def _combine(self, other: "Bivector", sign: int) -> "Bivector":
        """self + sign * other over the least common denominator."""
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        fits(a * amax(self.re, self.im) + abs(b) * amax(other.re, other.im))
        return Bivector.of(a * self.re + b * other.re,
                           a * self.im + b * other.im, den)

    def __add__(self, other: "Bivector") -> "Bivector":
        return self._combine(other, 1)

    def __sub__(self, other: "Bivector") -> "Bivector":
        return self._combine(other, -1)

    def __neg__(self) -> "Bivector":
        return Bivector(-self.re, -self.im, self.den)

    def __eq__(self, other):
        return isinstance(other, Bivector) and (self - other).is_zero()

    __hash__ = None

    def scale(self, c) -> "Bivector":
        cr, ci, d = _parts(c)
        fits((abs(cr) + abs(ci)) * amax(self.re, self.im))
        return Bivector.of(cr * self.re - ci * self.im,
                           cr * self.im + ci * self.re, self.den * d)

    def zero_mask(self) -> np.ndarray:
        """Boolean array over the batch: which elements are zero."""
        return ~(self.re.any(axis=(-2, -1)) | self.im.any(axis=(-2, -1)))

    def is_zero(self) -> bool:
        return bool(self.zero_mask().all())


def wedge(u, w) -> Bivector:
    """u ^ w for Vector8's u, w: x -> (u, x) w - (w, x) u, where
    (u, x) = sum_c u[7-c] x[c]."""
    ur, ui, du = int_parts(u)
    wr, wi, dw = int_parts(w)
    fits(4 * amax(ur, ui) * amax(wr, wi))
    ur2, ui2, wr2, wi2 = ur[::-1], ui[::-1], wr[::-1], wi[::-1]
    re = (np.outer(wr, ur2) - np.outer(wi, ui2)
          - np.outer(ur, wr2) + np.outer(ui, wi2))
    im = (np.outer(wr, ui2) + np.outer(wi, ur2)
          - np.outer(ur, wi2) - np.outer(ui, wr2))
    return Bivector.of(re, im, du * dw)


# b_i ^ b_j acts by +1 at (j, 7-i) and -1 at (i, 7-j), so the coefficient
# of X on b_i ^ b_j is its action matrix entry (j, 7-i).
_COEFF_ROWS = np.array([j for i, j in PAIRS])
_COEFF_COLS = np.array([DIM - 1 - i for i, j in PAIRS])


def skew_coords(A: np.ndarray) -> np.ndarray:
    """The coefficients on the b_i ^ b_j, i < j, in PAIRS order, of the
    elements acting by the skew matrices A (..., 8, 8): shape (..., 28).
    A skew matrix is the sum of its coefficients times the b_i ^ b_j, so
    they determine it."""
    return A[..., _COEFF_ROWS, _COEFF_COLS]


def biv_coords(X: Bivector) -> Tuple[np.ndarray, np.ndarray]:
    """Numerators (re, im) over X.den of the coefficients of X on the
    b_i ^ b_j, i < j, in PAIRS order; arrays of shape (..., 28)."""
    return skew_coords(X.re), skew_coords(X.im)


def skew_bivector(re, im, den: int = 1) -> Bivector:
    """The elements acting by the matrices (re + i im) / den, int64 arrays
    of shape (..., 8, 8).  Raises unless every one is skew w.r.t. the form
    (i.e. in the image of wedge^2 V): (Ax, y) + (x, Ay) = 0 reads
    J A + (J A)^t = 0, and J A is A with its rows reversed."""
    for part in (re, im):
        ja = part[..., ::-1, :]
        if (ja + ja.swapaxes(-1, -2)).any():
            raise ValueError("matrix is not skew with respect to the form")
    return Bivector.of(re, im, den)


def _commutator(a, b):
    c = a @ b
    c -= b @ a
    return c


def bracket(X: Bivector, Y: Bivector) -> Bivector:
    """Lie bracket: the commutator act(X) act(Y) - act(Y) act(X)."""
    fits(32 * amax(X.re, X.im) * amax(Y.re, Y.im))
    re = _commutator(X.re, Y.re)
    re -= _commutator(X.im, Y.im)
    im = _commutator(X.re, Y.im)
    im += _commutator(X.im, Y.re)
    return Bivector.of(re, im, X.den * Y.den)


def cartan_theta(X: Bivector) -> Bivector:
    """Cartan involution induced by iota: b_j <-> b_{-j} on all eight
    indices (storage index k <-> 7-k), i.e. conjugation by that
    permutation."""
    return Bivector(X.re[..., ::-1, ::-1], X.im[..., ::-1, ::-1], X.den)


def trace_form(X: Bivector, Y: Bivector) -> GaussRational:
    """B(X, Y) = tr(act(X) act(Y)) in the 8-dim representation, for single
    elements."""
    fits(128 * amax(X.re, X.im) * amax(Y.re, Y.im))
    re = int(np.sum(X.re * Y.re.T - X.im * Y.im.T))
    im = int(np.sum(X.re * Y.im.T + X.im * Y.re.T))
    return GaussRational.over(re, im, X.den * Y.den)


# --- the distinguished su(2) -------------------------------------------------
# u1 = (b1 + b-1)/sqrt2, u2 = (b2 + b-2)/sqrt2,
# v1 = (b3 + b-3)/sqrt2, v2 = (b4 + b-4)/sqrt2.
# sqrt2's are cleared pairwise: each generator below is a sum of wedges of two
# such vectors, contributing a global 1/2.

def _su2_triple():
    """e+ = 1/2 (u1 - i u2) ^ (v1 - i v2), f+ = -1/2 (u1 + i u2) ^ (v1 + i v2)
    and h+ = i (u1 ^ u2 + v1 ^ v2), from the coordinates of sqrt2 u1, ...,
    sqrt2 v2."""
    u1, u2 = (1, 0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 1, 0)
    v1, v2 = (0, 0, 1, 0, 0, 1, 0, 0), (0, 0, 0, 1, 1, 0, 0, 0)
    i = GaussRational.make(0, 1)

    def plus_i(x, y, sign):                # x + sign i y
        return tuple(a + sign * b * i for a, b in zip(x, y))

    e = wedge(plus_i(u1, u2, -1), plus_i(v1, v2, -1)).scale(Fraction(1, 4))
    f = wedge(plus_i(u1, u2, 1), plus_i(v1, v2, 1)).scale(Fraction(-1, 4))
    h = (wedge(u1, u2) + wedge(v1, v2)).scale(i * Fraction(1, 2))
    return e, h, f


E_PLUS, H_PLUS, F_PLUS = _su2_triple()
