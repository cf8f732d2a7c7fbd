"""Split octonions in the Zorn vector-matrix model, over exact scalars.

An element is written as a 2x2 "matrix"

    [ a   v ]
    [ phi d ]

with a, d scalars, v a 3-vector and phi a 3-covector.  Scalars are kept as
given: integers for the integral octonions the checks use, and every
operation works verbatim over any exact ring (Fraction, Gaussian
rationals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

def _cross(u: Sequence, w: Sequence) -> Tuple:
    return (
        u[1] * w[2] - u[2] * w[1],
        u[2] * w[0] - u[0] * w[2],
        u[0] * w[1] - u[1] * w[0],
    )


def _dot(u: Sequence, w: Sequence):
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


@dataclass(frozen=True)
class Octonion:
    a: object
    v: Tuple
    phi: Tuple
    d: object

    @staticmethod
    def make(a=0, v=(0, 0, 0), phi=(0, 0, 0), d=0) -> "Octonion":
        return Octonion(a, tuple(v), tuple(phi), d)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.a + other.a,
                        tuple(s + t for s, t in zip(self.v, other.v)),
                        tuple(s + t for s, t in zip(self.phi, other.phi)),
                        self.d + other.d)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return self + (-other)

    def __neg__(self) -> "Octonion":
        return Octonion(-self.a, tuple(-s for s in self.v),
                        tuple(-s for s in self.phi), -self.d)

    def scale(self, c) -> "Octonion":
        return Octonion(c * self.a, tuple(c * s for s in self.v),
                        tuple(c * s for s in self.phi), c * self.d)

    def __mul__(self, other: "Octonion") -> "Octonion":
        return oct_mul(self, other)


def oct_mul(x: Octonion, y: Octonion) -> Octonion:
    """Zorn product.

    (a,v,phi,d)(a',v',phi',d') =
        (aa' + phi'(v),
         av' + d'v - phi x phi',
         a'phi + d phi' + v x v',
         phi(v') + dd')
    with both wedge products identified with the standard cross product:
    V3 x V3 -> V3* is +cross, and wedge(V3*, V3*) -> V3 is +cross too, the
    sign that makes the standard triality triples verify (only the relative
    sign is forced).
    """
    a = x.a * y.a + _dot(y.phi, x.v)
    v = tuple(x.a * s + y.d * t - c
              for s, t, c in zip(y.v, x.v, _cross(x.phi, y.phi)))
    phi = tuple(y.a * s + x.d * t + c
                for s, t, c in zip(x.phi, y.phi, _cross(x.v, y.v)))
    d = _dot(x.phi, y.v) + x.d * y.d
    return Octonion(a, v, phi, d)


def norm(x: Octonion):
    """n(x) = ad - phi(v); multiplicative for the Zorn product."""
    return x.a * x.d - _dot(x.phi, x.v)


def conj(x: Octonion) -> Octonion:
    return Octonion(x.d, tuple(-s for s in x.v), tuple(-s for s in x.phi), x.a)


def trace(x: Octonion):
    return x.a + x.d


def trilinear(x: Octonion, y: Octonion, z: Octonion):
    """(x, y, z) = tr(x(yz)); invariant under cyclic permutation."""
    return trace(oct_mul(x, oct_mul(y, z)))


# Basis elements.
UNIT = Octonion.make(1, d=1)
EPS1 = Octonion.make(1)
EPS2 = Octonion.make(d=1)
E1 = Octonion.make(v=(1, 0, 0))
E2 = Octonion.make(v=(0, 1, 0))
E3 = Octonion.make(v=(0, 0, 1))
E1S = Octonion.make(phi=(1, 0, 0))
E2S = Octonion.make(phi=(0, 1, 0))
E3S = Octonion.make(phi=(0, 0, 1))

BASIS = {"eps1": EPS1, "eps2": EPS2, "e1": E1, "e2": E2, "e3": E3,
         "e1*": E1S, "e2*": E2S, "e3*": E3S}

# The b-basis of the split quadratic space, in storage order
# (b1, b2, b3, b4, b-4, b-3, b-2, b-1):
# (e1, e3*, eps2, e2*, e2, -eps1, e3, e1*).
B_BASIS = (E1, E3S, EPS2, E2S, E2, -EPS1, E3, E1S)


def to_vector8(x: Octonion) -> Tuple:
    """Coordinates of x in the b-basis (b1,b2,b3,b4,b-4,b-3,b-2,b-1)."""
    return (x.v[0], x.phi[2], x.d, x.phi[1],
            x.v[1], -x.a, x.v[2], x.phi[0])


def from_vector8(w: Sequence) -> Octonion:
    return Octonion(-w[5], (w[0], w[4], w[6]), (w[7], w[3], w[1]), w[2])
