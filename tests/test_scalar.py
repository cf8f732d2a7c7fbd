"""The Gaussian-rational scalar: lowest terms, weighted sums, float
conversion and immutability."""

import random
from fractions import Fraction
from math import gcd

import pytest

from octolift.scalar import GZERO, GaussRational, weighted_sum
from octolift.whittaker import _s_v_poly

from oracles import s_v_exact


def _random_gauss(rng, size=9, den=12):
    return GaussRational(*(Fraction(rng.randint(-size, size),
                                    rng.randint(1, den)) for _ in range(2)))


def _ints(x):
    return (x.p, x.q, x.d)


def test_equal_values_hold_equal_integers():
    rng = random.Random(3)
    for _ in range(500):
        x, y = _random_gauss(rng), _random_gauss(rng)
        k = rng.choice((-6, -1, 2, 35))
        same = (GaussRational(x.re, x.im),
                GaussRational.make(str(x.re), str(x.im)),
                GaussRational.over(k * x.p, k * x.q, k * x.d),
                x + y - y,
                (x * 6) / 6,
                x * y / y if y else x,
                -(-x),
                x.conj().conj())
        for z in same:
            assert z == x
            assert _ints(z) == _ints(x) and hash(z) == hash(x)
        assert x.d > 0 and gcd(x.p, x.q, x.d) == 1
        assert (x.re, x.im) == (Fraction(x.p, x.d), Fraction(x.q, x.d))
    assert _ints(GaussRational.over(0, 0, -7)) == (0, 0, 1) == _ints(GZERO)
    assert _ints(GaussRational.over(4, -6, -10)) == (-2, 3, 5)
    with pytest.raises(ZeroDivisionError):
        GaussRational.over(1, 0, 0)
    with pytest.raises(ZeroDivisionError):
        GaussRational.make(1) / 0


def test_weighted_sum_is_the_operator_sum():
    rng = random.Random(5)
    assert _ints(weighted_sum([])) == (0, 0, 1)
    assert _ints(weighted_sum(iter(()))) == (0, 0, 1)
    for _ in range(300):
        den = rng.choice((1, 4, 12, 360))
        terms = [(rng.randint(-5, 5) * rng.choice((0, 1, 1, 10 ** 20)),
                  _random_gauss(rng, 10 ** rng.randint(1, 12), den))
                 for _ in range(rng.randint(0, 12))]
        want = GZERO
        for n, x in terms:
            want = want + n * x
        got = weighted_sum(terms)
        assert got == want and _ints(got) == _ints(want)
        assert got.d > 0 and gcd(got.p, got.q, got.d) == 1
    x = GaussRational(Fraction(1, 6), Fraction(-5, 4))
    assert weighted_sum([(3, x), (-3, x)]) == GZERO
    assert weighted_sum([(0, x)]) == GZERO


def _bits(to_complex):
    """The bits of the float parts of to_complex(), or "overflow"."""
    try:
        z = to_complex()
    except OverflowError:
        return "overflow"
    return (z.real.hex(), z.imag.hex())


def test_complex_rounds_as_the_fraction_route():
    """complex() on (p + iq)/d matches complex(Fraction, Fraction) bit for
    bit, on the terms of the S_v sums (numerators of hundreds of digits
    that do not cancel) and on random integers reaching the subnormal
    range."""
    cases = []
    for v in range(-30, 31):
        re, im = _s_v_poly(v)
        top = len(re)
        for X in (Fraction(1, 10), Fraction(1, 3), Fraction(22, 7),
                  Fraction(0.37), Fraction(123, 4)):
            p, q = X.numerator, X.denominator
            cases += [(re[m] * q ** m, im[m] * q ** m, p ** m << top)
                      for m in range(top)]
            x = s_v_exact(v, X)
            cases.append((x.p, x.q, x.d))
    rng = random.Random(11)
    for _ in range(2000):
        d = rng.getrandbits(rng.randint(1, 1100)) + 1
        cases.append((rng.getrandbits(rng.randint(0, 1100)) - (1 << 500),
                      rng.getrandbits(rng.randint(0, 60)), d))
    for shift in range(1000, 1100):   # quotients of 2^-1000 .. 2^-1100
        cases.append((-rng.getrandbits(64), rng.getrandbits(64),
                      rng.getrandbits(64) << shift | 1))
    for p, q, d in cases:
        assert (_bits(lambda: complex(GaussRational.over(p, q, d)))
                == _bits(lambda: complex(Fraction(p, d), Fraction(q, d))))


def test_assignment_raises():
    x = GaussRational.make(1, 2)
    for name in ("p", "q", "d", "re", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 3)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert _ints(x) == (1, 2, 1)
