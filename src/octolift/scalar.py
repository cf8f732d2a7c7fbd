"""The scalar type of every exact pipeline: Gaussian rationals re + i im
with re, im fractions.Fraction.  Standard library only, so the table
pipelines load no array module."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GaussRational:
    re: Fraction
    im: Fraction

    @staticmethod
    def make(re=0, im=0) -> "GaussRational":
        return GaussRational(Fraction(re), Fraction(im))

    def __add__(self, other):
        other = _coerce(other)
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):   # an integer scale (bool included)
            return GaussRational(self.re * other, self.im * other)
        other = _coerce(other)
        return GaussRational(self.re * other.re - self.im * other.im,
                             self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return self * GaussRational(other.re / n, -other.im / n)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conj(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def __complex__(self):
        return complex(self.re, self.im)

    def __repr__(self):
        return f"GaussRational({self.re}, {self.im})"


def _coerce(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRational(Fraction(x), Fraction(0))
    raise TypeError(f"cannot coerce {x!r} to GaussRational")


GZERO = GaussRational.make(0)
