"""The split 8-dimensional quadratic space V in the b-basis, and the Lie
algebra wedge^2 V = so(8) acting on it: its bracket, trace form and Cartan
involution.

Coordinates are stored in the order (b1, b2, b3, b4, b-4, b-3, b-2, b-1);
the Gram matrix is the anti-diagonal identity, i.e. (index i, index 7-i)
pair to 1.  Vectors have rational coordinates.

An element of wedge^2 V is stored as its action matrix on V: an int64
array of shape (..., 8, 8) over one positive denominator, as
triality.GEElement stores an element of g_E.  Leading axes index a batch,
so each operation applies to many elements in one call.  Every product is
bounded first.  Elementwise int64 work must stay below 2^62 (fits); an
array contraction runs on float64 BLAS (exact_matmul) and must keep the
sum of |terms| of every output entry below 2^53, where float64 holds every
integer exactly.  An operation whose result could leave its range raises
OverflowError rather than wrap or round.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Tuple

import numpy as np

from .scalar import _coerce
# The scalar type lives in scalar; it stays importable from here.
from .scalar import GaussRational  # noqa: F401

DIM = 8
# wedge basis index pairs i<j, fixed total order.
PAIRS = tuple(combinations(range(DIM), 2))


# --- exact integer arrays ----------------------------------------------------

_LIMIT = 2 ** 62
# Every integer of absolute value at most 2^53 is a float64.
_FLOAT_LIMIT = 2 ** 53


def amax(a) -> int:
    """Largest absolute entry of an integer array, 0 if it is empty."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


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


def reduced(den: int, num):
    """(den, num) divided by the gcd of den and every entry of num."""
    g = int(np.gcd.reduce(num, axis=None, initial=den))
    if g == 1:
        return den, num
    return den // g, num // g


def _parts(x) -> Tuple[int, int]:
    """(num, den) integers with x = num / den, for a rational x: an int, a
    Fraction or a GaussRational with no imaginary part."""
    if isinstance(x, (int, np.integer)):
        return int(x), 1
    x = _coerce(x)
    if x.q:
        raise ValueError(f"{x!r} is not rational")
    return x.p, x.d


def int_parts(xs):
    """An int64 array num and an int den with xs[k] = num[k] / den, for a
    flat sequence of rationals."""
    parts = [_parts(x) for x in xs]
    den = lcm(*(d for _, d in parts))
    return (np.array([n * (den // d) for n, d in parts], dtype=np.int64),
            den)


# --- so(8) as action matrices ------------------------------------------------

@dataclass(frozen=True, eq=False)
class Bivector:
    """Element of wedge^2 V, stored as its action matrix num / den on V: num
    an int64 array of shape (..., 8, 8) whose leading axes index a batch,
    den a positive int shared by the batch."""
    num: np.ndarray
    den: int = 1

    @staticmethod
    def of(num, den: int = 1) -> "Bivector":
        """num / den with the common factor divided out."""
        den, num = reduced(den, num)
        return Bivector(num, den)

    def __getitem__(self, index) -> "Bivector":
        """Batch element(s) at index."""
        return Bivector.of(self.num[index], self.den)

    def _combine(self, other: "Bivector", sign: int) -> "Bivector":
        """self + sign * other over the least common denominator."""
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        fits(a * amax(self.num) + abs(b) * amax(other.num))
        return Bivector.of(a * self.num + b * other.num, den)

    def __add__(self, other: "Bivector") -> "Bivector":
        return self._combine(other, 1)

    def __sub__(self, other: "Bivector") -> "Bivector":
        return self._combine(other, -1)

    def __neg__(self) -> "Bivector":
        return Bivector(-self.num, self.den)

    def __eq__(self, other):
        if not isinstance(other, Bivector):
            return NotImplemented
        return (self.num.shape == other.num.shape
                and (self - other).is_zero())

    __hash__ = None

    def scale(self, c) -> "Bivector":
        """c times self, for a rational c."""
        n, d = _parts(c)
        fits(abs(n) * amax(self.num))
        return Bivector.of(n * self.num, self.den * d)

    def zero_mask(self) -> np.ndarray:
        """Boolean array over the batch: which elements are zero."""
        return ~self.num.any(axis=(-2, -1))

    def is_zero(self) -> bool:
        return bool(self.zero_mask().all())


def wedge(u, w) -> Bivector:
    """u ^ w for Vector8's u, w of rationals: x -> (u, x) w - (w, x) u,
    where (u, x) = sum_c u[7-c] x[c]."""
    un, du = int_parts(u)
    wn, dw = int_parts(w)
    fits(2 * amax(un) * amax(wn))
    return Bivector.of(np.outer(wn, un[::-1]) - np.outer(un, wn[::-1]),
                       du * dw)


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


def skew_bivector(num, den: int = 1) -> Bivector:
    """The elements acting by the matrices num / den, num an int64 array of
    shape (..., 8, 8).  Raises unless every one is skew w.r.t. the form
    (i.e. in the image of wedge^2 V): (Ax, y) + (x, Ay) = 0 reads
    J A + (J A)^t = 0, and J A is A with its rows reversed."""
    ja = num[..., ::-1, :]
    if (ja + ja.swapaxes(-1, -2)).any():
        raise ValueError("matrix is not skew with respect to the form")
    return Bivector.of(num, den)


def bracket(X: Bivector, Y: Bivector) -> Bivector:
    """Lie bracket: the commutator act(X) act(Y) - act(Y) act(X)."""
    fits(16 * amax(X.num) * amax(Y.num))
    c = X.num @ Y.num
    c -= Y.num @ X.num
    return Bivector.of(c, X.den * Y.den)


def cartan_theta(X: Bivector) -> Bivector:
    """Cartan involution induced by iota: b_j <-> b_{-j} on all eight
    indices (storage index k <-> 7-k), i.e. conjugation by that
    permutation."""
    return Bivector(X.num[..., ::-1, ::-1], X.den)


def trace_form(X: Bivector, Y: Bivector) -> Fraction:
    """B(X, Y) = tr(act(X) act(Y)) in the 8-dim representation, for single
    elements."""
    fits(64 * amax(X.num) * amax(Y.num))
    return Fraction(int(np.sum(X.num * Y.num.T)), X.den * Y.den)
