"""The scalar type of every exact pipeline: Gaussian rationals (p + i q) / d
held as three integers in lowest terms, and the integer-weighted sums that
every coefficient relation is made of.  Standard library only, so the table
pipelines load no array module."""
from __future__ import annotations

from fractions import Fraction
from math import gcd


class GaussRational:
    """(p + i q) / d with d > 0 and gcd(p, q, d) = 1, so equal values hold
    equal integers and compare and hash as three ints.  Immutable; re and
    im read as Fractions."""
    __slots__ = ("p", "q", "d")

    def __init__(self, re=0, im=0):
        """re + i im for ints or Fractions re and im, used as they are."""
        dr, di = re.denominator, im.denominator
        d = dr * di // gcd(dr, di)
        # Lowest terms already: a prime power exactly dividing d exactly
        # divides dr or di, so it does not divide that part's numerator.
        _set_p(self, re.numerator * (d // dr))
        _set_q(self, im.numerator * (d // di))
        _set_d(self, d)

    @staticmethod
    def make(re=0, im=0) -> "GaussRational":
        """re + i im for anything Fraction accepts (ints, Fractions,
        strings)."""
        return GaussRational(Fraction(re), Fraction(im))

    @staticmethod
    def over(p: int, q: int, d: int) -> "GaussRational":
        """(p + i q) / d for integers with d != 0, put in lowest terms."""
        if d < 0:
            p, q, d = -p, -q, -d
        elif d == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
        return _new(p, q, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.q, self.d)

    def __add__(self, other):
        other = _coerce(other)
        d, e = self.d, other.d
        return GaussRational.over(self.p * e + other.p * d,
                                  self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.p, -self.q, self.d)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):   # an integer scale (bool included)
            return GaussRational.over(self.p * other, self.q * other, self.d)
        other = _coerce(other)
        p, q, a, b = self.p, self.q, other.p, other.q
        return GaussRational.over(p * a - q * b, p * b + q * a,
                                  self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return GaussRational.over(self.p, self.q, self.d * other)
        other = _coerce(other)
        # (p + iq)/d divided by (a + ib)/e is
        # e (p + iq)(a - ib) / (d (a^2 + b^2))
        p, q, a, b, e = self.p, self.q, other.p, other.q, other.d
        return GaussRational.over(e * (p * a + q * b), e * (q * a - p * b),
                                  self.d * (a * a + b * b))

    def __eq__(self, other):
        if type(other) is not GaussRational:
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented
        return (self.p == other.p and self.q == other.q
                and self.d == other.d)

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def conj(self) -> "GaussRational":
        return _new(self.p, -self.q, self.d)

    def __complex__(self):
        # int / int rounds correctly, as float(Fraction) does
        return complex(self.p / self.d, self.q / self.d)

    def __repr__(self):
        return f"GaussRational({self.re}, {self.im})"


_set_p = GaussRational.p.__set__
_set_q = GaussRational.q.__set__
_set_d = GaussRational.d.__set__


def _new(p: int, q: int, d: int) -> GaussRational:
    """(p + i q) / d from integers already in lowest terms with d > 0."""
    x = object.__new__(GaussRational)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def _coerce(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, int):
        return _new(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _new(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {x!r} to GaussRational")


def weighted_sum(terms) -> GaussRational:
    """sum n x over the (n, x) pairs of terms, an int n and a GaussRational
    x each: the numerators are added over a running common denominator and
    the total is put in lowest terms once."""
    p = q = 0
    d = 1
    for n, x in terms:
        e = x.d
        if e != d:
            k = e // gcd(d, e)   # d k = lcm(d, e)
            if k != 1:
                p, q, d = p * k, q * k, d * k
            n *= d // e
        p += n * x.p
        q += n * x.q
    return GaussRational.over(p, q, d)


GZERO = _new(0, 0, 1)
