"""Split quadratic space, bivector Lie algebra, and the su(2) projection."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octolift.quadspace import (DIM, Bivector, bracket, cartan_theta,
                                exact_matmul, skew_bivector, trace_form,
                                wedge)
from octolift.scalar import GZERO, GaussRational, _coerce
from octolift.whittaker import _PRK2, _su2_basis

import oracles
from oracles import (Sym2Element, basis_vector, biv_act, pairing, pr_K,
                     qval, sym2_power)

E_PLUS, H_PLUS, F_PLUS = oracles.su2_triple()
E_PRIME, H_PRIME, F_PRIME = oracles.su2_prime_triple()
P, Q, R = _su2_basis()


def gvec(coords):
    """An 8-tuple of GaussRationals."""
    return tuple(map(_coerce, coords))


coords = st.tuples(*([st.integers(-5, 5)] * DIM)).map(gvec)
bivectors = st.builds(wedge, coords, coords)


def _zero(X):
    return X.is_zero()


@pytest.mark.parametrize("k", [7, -3, 0, True, False, 10 ** 30])
def test_gauss_rational_times_int_is_the_coerced_product(k):
    z = GaussRational(Fraction(22, 7), Fraction(-1, 3))
    want = z * _coerce(k)
    for got in (z * k, k * z):
        assert got == want and hash(got) == hash(want)
        assert type(got.re) is Fraction and type(got.im) is Fraction


def test_gram_is_antidiagonal():
    for i in range(DIM):
        assert qval(basis_vector(i)) == GZERO
        for j in range(DIM):
            want = 1 if i + j == DIM - 1 else 0
            assert pairing(basis_vector(i), basis_vector(j)) == want


@given(coords, coords)
def test_polarization(u, w):
    uw = tuple(a + b for a, b in zip(u, w))
    assert pairing(u, w) == qval(uw) - qval(u) - qval(w)


@given(coords, coords)
def test_wedge_antisymmetric(u, w):
    assert _zero(wedge(u, w) + wedge(w, u))
    assert _zero(wedge(u, u))


def test_biv_act_basis_conventions():
    b = basis_vector
    minus_b1 = tuple(-a for a in b(0))
    # (b1 ^ b-1) acts as -1 on b1 ...
    assert biv_act(wedge(b(0), b(7)), b(0)) == minus_b1
    # ... and (b1 ^ b2) sends b-2 to -b1
    assert biv_act(wedge(b(0), b(1)), b(6)) == minus_b1


@given(bivectors, coords, coords)
@settings(max_examples=100)
def test_biv_act_infinitesimal_isometry(X, u, w):
    assert (pairing(biv_act(X, u), w) + pairing(u, biv_act(X, w))) == GZERO


@given(bivectors, bivectors, coords)
@settings(max_examples=100)
def test_bracket_is_commutator(X, Y, u):
    lhs = biv_act(bracket(X, Y), u)
    rhs = tuple(a - b for a, b in zip(biv_act(X, biv_act(Y, u)),
                                      biv_act(Y, biv_act(X, u))))
    assert lhs == rhs


@given(bivectors, bivectors, bivectors)
@settings(max_examples=50)
def test_jacobi_identity(X, Y, Z):
    total = (bracket(bracket(X, Y), Z) + bracket(bracket(Y, Z), X)
             + bracket(bracket(Z, X), Y))
    assert _zero(total)


def test_skew_bivector_rejects_non_skew():
    num = np.zeros((DIM, DIM), dtype=np.int64)
    num[0, 0] = 1                    # not skew w.r.t. the split form
    with pytest.raises(ValueError):
        skew_bivector(num)


def test_bivectors_are_rational():
    i = GaussRational.make(0, 1)
    X = wedge(basis_vector(0), basis_vector(1))
    with pytest.raises(ValueError):
        wedge((i,) + (0,) * (DIM - 1), basis_vector(1))
    with pytest.raises(ValueError):
        X.scale(i)
    assert X.scale(GaussRational.make(Fraction(1, 2))) == X.scale(
        Fraction(1, 2))


@given(bivectors, bivectors)
@settings(max_examples=50)
def test_cartan_theta_involutive_automorphism(X, Y):
    assert _zero(cartan_theta(cartan_theta(X)) - X)
    assert _zero(cartan_theta(bracket(X, Y))
                 - bracket(cartan_theta(X), cartan_theta(Y)))


def test_su2_triples():
    # on the oracle's Gaussian-rational coefficients
    bracket_, scale = oracles.sparse_bracket, oracles.coeffs_scale
    for e, h, f in ((E_PLUS, H_PLUS, F_PLUS), (E_PRIME, H_PRIME, F_PRIME)):
        assert bracket_(f, e) == h
        assert bracket_(h, f) == scale(f, 2)
        assert bracket_(h, e) == scale(e, -2)
    # the two su(2)'s commute
    zero = scale(E_PLUS, 0)
    for a in (E_PLUS, H_PLUS, F_PLUS):
        for b in (E_PRIME, H_PRIME, F_PRIME):
            assert bracket_(a, b) == zero


def test_su2_real_basis():
    # P, Q, R are integral, trace-orthogonal of norm -16, and close under
    # the bracket with [P, Q] = 4 R cyclically
    basis = (P, Q, R)
    assert all(X.den == 1 for X in basis)
    assert [[trace_form(a, b) for b in basis] for a in basis] == [
        [-16, 0, 0], [0, -16, 0], [0, 0, -16]]
    for a, b, c in ((P, Q, R), (Q, R, P), (R, P, Q)):
        assert bracket(a, b) == c.scale(4)


def test_su2_real_basis_gives_the_complex_triple():
    # e+ = (P - iQ)/4, h+ = iR/2 and f+ = -(P + iQ)/4 against the oracle's
    # triple built from its definition
    i = GaussRational.make(0, 1)
    p, q, r = map(oracles.coeffs_of, (P, Q, R))
    add, scale = oracles.coeffs_add, oracles.coeffs_scale
    assert E_PLUS == scale(add(p, scale(q, -i)), Fraction(1, 4))
    assert H_PLUS == scale(r, i / 2)
    assert F_PLUS == scale(add(p, scale(q, i)), Fraction(-1, 4))


def test_prk_matrices_are_pinned():
    # the key matrices, from P, Q, R as the closed form reads them
    assert _PRK2.dtype == np.int64 and _PRK2.shape == (3, 8, 8)
    assert hashlib.sha256(_PRK2.tobytes()).hexdigest() == (
        "a1c3321de7822974a4ebfe6febb92631ba5f825e6f0411a5f056d8c97ead818e")
    c = [X.num[::-1] - X.num[::-1].T for X in (P, Q, R)]
    assert (_PRK2 * 2 == np.stack([c[0], -c[1], 2 * c[2]])).all()


@given(bivectors, bivectors)
@settings(max_examples=50)
def test_trace_form_symmetric_invariant(X, Y):
    assert trace_form(X, Y) == trace_form(Y, X)


def test_pr_k_on_the_su2_itself():
    assert pr_K(E_PLUS) == Sym2Element.make(-1, 0, 0)
    assert pr_K(H_PLUS) == Sym2Element.make(0, 2, 0)
    assert pr_K(F_PLUS) == Sym2Element.make(0, 0, 1)
    # the commuting su(2) is trace-orthogonal, hence projects to zero
    for b in (E_PRIME, H_PRIME, F_PRIME):
        assert pr_K(b) == Sym2Element.make(0, 0, 0)


@given(bivectors, bivectors)
@settings(max_examples=50)
def test_pr_k_linear(X, Y):
    s = pr_K(X + Y)
    t = pr_K(X) + pr_K(Y)
    assert (s.c_xx, s.c_xy, s.c_yy) == (t.c_xx, t.c_xy, t.c_yy)


def test_sym2_power_against_direct_expansion():
    s = Sym2Element.make(Fraction(2), Fraction(-1, 2), Fraction(3))
    for ell in (1, 2, 3, 5):
        got = sym2_power(s, ell)
        # multiply out (c_yy + c_xy T + c_xx T^2)^ell with T tracking x/y
        poly = [Fraction(1)]
        base = [Fraction(3), Fraction(-1, 2), Fraction(2)]
        for _ in range(ell):
            new = [Fraction(0)] * (len(poly) + 2)
            for i, a in enumerate(poly):
                for j, b in enumerate(base):
                    new[i + j] += a * b
            poly = new
        assert len(got) == 2 * ell + 1
        assert list(got) == poly


# --- the integer action matrices against the sparse Fraction oracle ----------

ints8 = st.lists(st.integers(-5, 5), min_size=DIM, max_size=DIM)
rational_coords = st.builds(
    lambda nums, den: tuple(Fraction(a, den) for a in nums),
    ints8, st.integers(1, 3))
rational_bivectors = st.builds(
    lambda u, w, v, x: wedge(u, w) + wedge(v, x),
    rational_coords, rational_coords, coords, rational_coords)


@given(rational_coords, rational_coords)
@settings(max_examples=50)
def test_wedge_matches_oracle(u, w):
    assert oracles.coeffs_of(wedge(u, w)) == oracles.coeffs_wedge(u, w)


@given(rational_bivectors, rational_bivectors)
@settings(max_examples=50)
def test_bracket_matches_sparse_oracle(X, Y):
    got = oracles.coeffs_of(bracket(X, Y))
    assert got == oracles.sparse_bracket(oracles.coeffs_of(X),
                                         oracles.coeffs_of(Y))


def test_batched_bracket_matches_single_brackets():
    rng = random.Random(8)
    Xs = [wedge(gvec([rng.randint(-3, 3) for _ in range(DIM)]),
                gvec([rng.randint(-3, 3) for _ in range(DIM)])).scale(
                    Fraction(3, 2)) for _ in range(6)]
    batch = Bivector.of(np.stack([X.num * (2 // X.den) for X in Xs]), 2)
    C = bracket(batch, cartan_theta(batch))
    assert list(C.zero_mask()) == [False] * 6
    for k, X in enumerate(Xs):
        assert C[k] == bracket(X, cartan_theta(X))


def test_int64_overflow_raises():
    X = wedge(gvec([2 ** 40 + 1, 1] + [0] * (DIM - 2)), basis_vector(2))
    with pytest.raises(OverflowError):
        bracket(X, X.scale(2 ** 10))
    with pytest.raises(OverflowError):
        X.scale(2 ** 30)


def _term_bound(a, b):
    """The largest sum of |terms| over the entries of a @ b, in Python
    ints."""
    return int((abs(a.astype(object)) @ abs(b.astype(object))).max())


def test_exact_matmul_just_below_2_53_is_the_integer_product():
    rng = np.random.default_rng(53)
    for shape_a, shape_b, top in (((5, 7), (7, 4), 1000),
                                  ((3, 6, 8), (8, 2), 9),
                                  ((1, 2), (2, 1), 1)):
        a = rng.integers(-top, top + 1, size=shape_a)
        b = rng.integers(-top, top + 1, size=shape_b)
        a[..., 0, 0], b[0, 0] = top, top    # so the bound is not 0
        # scale a so that the largest sum of |terms| is just below 2^53
        a *= (2 ** 53 - 1) // _term_bound(a, b)
        bound = _term_bound(a, b)
        assert 2 ** 53 - 2 ** 42 < bound < 2 ** 53
        got = exact_matmul(a, b, bound)
        want = a.astype(object) @ b.astype(object)
        assert got.dtype == np.float64
        assert [int(x) for x in got.ravel()] == list(want.ravel())


def test_exact_matmul_raises_from_2_53_on():
    a = np.array([[2 ** 53, 1]], dtype=np.int64)
    b = np.ones((2, 1), dtype=np.int64)
    # the one addition 2^53 + 1 rounds back to 2^53 in float64
    assert _term_bound(a, b) == 2 ** 53 + 1
    assert int(np.matmul(a, b, dtype=np.float64)[0, 0]) == 2 ** 53
    for bound in (2 ** 53, 2 ** 53 + 1, 2 ** 62):
        with pytest.raises(OverflowError):
            exact_matmul(a, b, bound)
    a[0, 0] = 2 ** 53 - 2       # a bound of 2^53 - 1, and exact
    assert exact_matmul(a, b, 2 ** 53 - 1)[0, 0] == 2 ** 53 - 1
