"""The exceptional-algebra isomorphism, triality triples, S3 action, cubes."""

import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octolift.octonion import (B_BASIS, Octonion, conj, from_vector8, norm,
                               oct_mul, to_vector8, trilinear)
from octolift.quadspace import (Bivector, bracket, cartan_theta,
                                skew_coords, wedge)
from octolift.scalar import GaussRational
from octolift.triality import (GE_BASIS, BhargavaCube, GEElement, _TR,
                               _commutator_coords, _wedge3, bracket_defects,
                               conj8, ge_basis, ge_bracket, ge_cartan, mul8,
                               mult_triples, norm8, octonion_identities,
                               perm_apply, phi_inv, phi_iso,
                               prop_mult_triple, s3_act_cube,
                               standard_triples, trilinear8,
                               triality_defects, verify_triality_triple)

import oracles
from oracles import biv_act, conj_twist, cube_pairing, s3_act_triple

PERMS = list(permutations((1, 2, 3)))
octonions = st.builds(
    lambda c, den: Octonion.make(Fraction(c[0], den),
                                 tuple(Fraction(e, den) for e in c[1:4]),
                                 tuple(Fraction(e, den) for e in c[4:7]),
                                 Fraction(c[7], den)),
    st.lists(st.integers(-4, 4), min_size=8, max_size=8), st.integers(1, 3))
octonion_pairs = st.tuples(octonions, octonions)
# batches of integral octonions as int64 b-coordinates, shape (n, 8)
coordinate_batches = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=8, max_size=8),
    min_size=n, max_size=n).map(lambda rows: np.array(rows, dtype=np.int64)))


def _rand_oct(rng):
    return Octonion.make(rng.randint(-4, 4),
                         tuple(rng.randint(-4, 4) for _ in range(3)),
                         tuple(rng.randint(-4, 4) for _ in range(3)),
                         rng.randint(-4, 4))


def test_phi_bijective_on_basis():
    for X in ge_basis():
        assert phi_inv(phi_iso(X)) == X


def test_phi_preserves_bracket_sample():
    basis = ge_basis()
    imgs = [phi_iso(X) for X in basis]
    rng = random.Random(1)
    for _ in range(60):
        i, j = rng.randrange(len(basis)), rng.randrange(len(basis))
        got = phi_iso(ge_bracket(basis[i], basis[j]))
        assert (got - bracket(imgs[i], imgs[j])).is_zero()


def test_phi_intertwines_cartan():
    for X in ge_basis():
        lhs = phi_iso(ge_cartan(X))
        assert (lhs - cartan_theta(phi_iso(X))).is_zero()


def test_standard_triples_verify():
    triples = standard_triples()
    assert len(triples) == 6
    for triple in triples:
        assert verify_triality_triple(*triple)


def test_standard_triples_match_the_wedge_construction():
    # read from rows of the Phi table; the oracle builds them from wedges
    got = [tuple(oracles.coeffs_of(X) for X in triple)
           for triple in standard_triples()]
    assert got == oracles.standard_triples()


def test_standard_triple_fails_when_perturbed():
    X1, X2, X3 = standard_triples()[0]
    assert not verify_triality_triple(X1.scale(2), X2, X3)


def test_verify_handles_non_integer_scalars():
    # joint rescaling preserves the defining identity; half-integer entries
    # exercise the general exact evaluation path
    from fractions import Fraction
    half = Fraction(1, 2)
    X1, X2, X3 = standard_triples()[0]
    assert verify_triality_triple(X1.scale(half), X2.scale(half),
                                  X3.scale(half))
    assert not verify_triality_triple(X1.scale(half), X2, X3)


def test_multiplication_triples_random():
    rng = random.Random(2)
    for _ in range(25):
        u, v = _rand_oct(rng), _rand_oct(rng)
        assert verify_triality_triple(*prop_mult_triple(u, v))


def test_triality_triples_cyclic():
    # the defining identity is invariant under cyclic rotation of the triple
    for X1, X2, X3 in standard_triples():
        assert verify_triality_triple(X2, X3, X1)
        assert verify_triality_triple(X3, X1, X2)


def test_s3_action_preserves_triality_triples():
    for p in PERMS:
        for triple in standard_triples()[:2]:
            assert verify_triality_triple(*s3_act_triple(p, triple))


def test_s3_act_cube_is_a_group_action():
    rng = random.Random(4)
    wc = BhargavaCube.make(rng.randint(-5, 5),
                           tuple(rng.randint(-5, 5) for _ in range(3)),
                           tuple(rng.randint(-5, 5) for _ in range(3)),
                           rng.randint(-5, 5))
    assert s3_act_cube((1, 2, 3), wc) == wc
    for p in PERMS:
        for q in PERMS:
            pq = tuple(p[q[i] - 1] for i in range(3))  # composition p o q
            assert (s3_act_cube(p, s3_act_cube(q, wc))
                    == s3_act_cube(pq, wc))


def test_cube_pairing_antisymmetric_and_s3_invariant():
    rng = random.Random(6)
    mk = lambda: BhargavaCube.make(
        rng.randint(-5, 5), tuple(rng.randint(-5, 5) for _ in range(3)),
        tuple(rng.randint(-5, 5) for _ in range(3)), rng.randint(-5, 5))
    for _ in range(20):
        w1, w2 = mk(), mk()
        assert cube_pairing(w1, w2) == -cube_pairing(w2, w1)
        for p in PERMS:
            assert (cube_pairing(s3_act_cube(p, w1), s3_act_cube(p, w2))
                    == cube_pairing(w1, w2))


def test_cube_transposition_on_distinguished_family():
    rng = random.Random(7)
    for _ in range(30):
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        wc = BhargavaCube.make(-c, (0, 0, b), (1, a, 1), 0)
        want = BhargavaCube.make(-c, (0, b, 0), (a, 1, 1), 0)
        assert s3_act_cube((3, 1, 2), wc) == want


def test_bad_permutation_rejected():
    wc = BhargavaCube.make(1, (0, 0, 0), (0, 0, 0), 1)
    with pytest.raises(ValueError):
        s3_act_cube((1, 1, 2), wc)


# --- the integer-array layer against the Fraction oracles --------------------

ge_elements = st.builds(
    lambda num, den: GEElement.of(np.array(num, dtype=np.int64), den),
    st.lists(st.integers(-6, 6), min_size=28, max_size=28),
    st.integers(1, 6))
real_bivectors = st.builds(
    lambda u, w, v, x, den: (wedge(u, w)
                             + wedge(v, x)).scale(Fraction(1, den)),
    *[st.tuples(*[st.integers(-4, 4)] * 8)] * 4, st.integers(1, 6))


@given(ge_elements, ge_elements)
@settings(max_examples=60, deadline=None)
def test_ge_bracket_matches_fraction_oracle(A, B):
    got = oracles.fields_of(ge_bracket(A, B))
    assert got == oracles.ge_bracket(oracles.fields_of(A),
                                     oracles.fields_of(B))


@given(ge_elements)
@settings(max_examples=60, deadline=None)
def test_phi_iso_matches_oracle(X):
    assert oracles.coeffs_of(phi_iso(X)) == oracles.phi_iso(
        oracles.fields_of(X))


@given(real_bivectors)
@settings(max_examples=60, deadline=None)
def test_phi_inv_matches_oracle(Y):
    assert oracles.fields_of(phi_inv(Y)) == oracles.phi_inv(
        oracles.coeffs_of(Y))


@given(ge_elements)
@settings(max_examples=30, deadline=None)
def test_ge_cartan_and_s3_match_field_formulas(X):
    sl3, e0, vE, dE = oracles.fields_of(X)
    want = (tuple(tuple(-sl3[j][i] for j in range(3)) for i in range(3)),
            tuple(-c for c in e0), dE, vE)
    assert oracles.fields_of(ge_cartan(X)) == want
    for p in PERMS:
        want = (sl3, perm_apply(p, e0),
                tuple(perm_apply(p, row) for row in vE),
                tuple(perm_apply(p, row) for row in dE))
        assert oracles.fields_of(oracles.s3_act_ge(p, X)) == want


def test_batched_calls_match_single_calls():
    rng = np.random.RandomState(5)
    A = GEElement.of(rng.randint(-5, 6, size=(12, 28)), 2)
    B = GEElement.of(rng.randint(-5, 6, size=(12, 28)), 3)
    C, P = ge_bracket(A, B), phi_iso(A)
    Q = phi_inv(P)
    for k in range(12):
        assert C[k] == ge_bracket(A[k], B[k])
        assert (P[k] - phi_iso(A[k])).is_zero()
        assert Q[k] == A[k]
    assert verify_triality_triple(*(
        Bivector.of(np.stack([X.num] * 3), X.den)
        for X in standard_triples()[2]))


def test_wedge3_equals_the_table_contraction():
    # the shifted products against the outer products times _W3
    rng = np.random.default_rng(11)
    shapes = [((3, 3), (3, 3)), ((5, 3, 3), (5, 3, 3)),
              ((4, 1, 3, 3), (1, 6, 3, 3)), ((2, 3, 3), (3, 3))]
    for xs, ys in shapes:
        X = rng.integers(-1000, 1001, size=xs)
        Y = rng.integers(-1000, 1001, size=ys)
        got, want = _wedge3(X, Y), oracles.wedge3_by_outer(X, Y)
        assert got.shape == want.shape and (got == want).all()


def test_commutator_table_matches_per_pair_brackets():
    basis, imgs = ge_basis(), phi_iso(GE_BASIS)
    table = _commutator_coords(imgs)          # over imgs.den ** 2
    assert table.shape == (28, 28, 28) and imgs.den == 1
    for i in range(28):
        for j in range(28):
            for want in (bracket(imgs[i], imgs[j]),
                         phi_iso(ge_bracket(basis[i], basis[j]))):
                assert (table[i, j] * want.den
                        == skew_coords(want.num)).all()
    C = ge_bracket(GE_BASIS[:, None], GE_BASIS[None])
    assert not bracket_defects(C, imgs).any()


def test_bracket_defects_over_denominators_name_the_failing_pair():
    rng = np.random.RandomState(8)
    A = GEElement.of(rng.randint(-5, 6, size=(7, 28)), 6)
    P, C = phi_iso(A), ge_bracket(A[:, None], A[None])
    assert P.den > 1 and C.den > 1
    assert not bracket_defects(C, P).any()
    num = C.num.copy()
    num[2, 4, 5] += 1
    bad = bracket_defects(GEElement(num, C.den), P)
    assert bad.sum() == 1 and bad[2, 4]


def test_bracket_defects_raise_instead_of_wrapping():
    imgs = phi_iso(GE_BASIS)
    C = ge_bracket(GE_BASIS[:, None], GE_BASIS[None])
    big = Bivector(imgs.num * 2 ** 30, imgs.den)
    for call in (lambda: _commutator_coords(big),
                 lambda: bracket_defects(C, big),
                 lambda: bracket_defects(
                     GEElement(np.full(C.num.shape, 2 ** 58), C.den), imgs)):
        with pytest.raises(OverflowError):
            call()


def test_prop_mult_triple_rejects_non_real_coordinates():
    i = GaussRational.make(0, 1)
    u = Octonion.make(1, (0, i, 0))
    with pytest.raises(ValueError):
        prop_mult_triple(u, B_BASIS[0])
    with pytest.raises(ValueError):
        prop_mult_triple(B_BASIS[0], u)


def test_bivector_equality_needs_equal_batch_shapes():
    X = phi_iso(GE_BASIS[3])
    three = Bivector(np.stack([X.num] * 3), X.den)
    assert three == phi_iso(GE_BASIS[[3, 3, 3]])
    assert not three == X and not X == three
    assert three != X and X != three
    assert phi_iso(GE_BASIS[:2]) != phi_iso(GE_BASIS[:3])
    assert not phi_iso(GE_BASIS[:3]) == phi_iso(GE_BASIS[:2])


def test_overflow_raises_instead_of_wrapping():
    big = GEElement(np.full(28, 2 ** 40, dtype=np.int64))
    with pytest.raises(OverflowError):
        ge_bracket(big, big)
    X = standard_triples()[0][0].scale(2 ** 40)
    with pytest.raises(OverflowError):
        verify_triality_triple(X, X, X.scale(2 ** 20))


def test_trilinear_tensor_matches_octonions():
    for i, x in enumerate(B_BASIS):
        for j, y in enumerate(B_BASIS):
            for k, z in enumerate(B_BASIS):
                assert _TR[i, j, k] == trilinear(x, y, z)


@given(octonion_pairs)
@settings(max_examples=30, deadline=None)
def test_mult_bivectors_match_octonion_products(uv):
    # components 1 and 2 act on the b-basis as l_{u*} l_v - l_{v*} l_u and
    # r_{u*} r_v - r_{v*} r_u
    u, v = uv
    us, vs = conj(u), conj(v)
    triple = prop_mult_triple(u, v)
    for side in (1, 2):
        for o in B_BASIS:
            if side == 1:
                w = oct_mul(us, oct_mul(v, o)) - oct_mul(vs, oct_mul(u, o))
            else:
                w = oct_mul(oct_mul(o, v), us) - oct_mul(oct_mul(o, u), vs)
            assert biv_act(triple[side], to_vector8(o)) == to_vector8(w)
    assert verify_triality_triple(*triple)


@given(real_bivectors, st.tuples(*[st.integers(-4, 4)] * 8))
@settings(max_examples=30, deadline=None)
def test_conj_twist_is_conjugation_by_octonionic_conj(X, x):
    # act(c X c) x = c act(X) c x, c the octonionic conjugation
    cx = to_vector8(conj(from_vector8(x)))
    lhs = biv_act(conj_twist(X), x)
    rhs = to_vector8(conj(from_vector8(biv_act(X, cx))))
    assert lhs == rhs


# --- octonions and triples as int64 batches ----------------------------------

@given(coordinate_batches, coordinate_batches, coordinate_batches)
@settings(max_examples=40, deadline=None)
def test_batched_octonion_arithmetic_matches_scalar(x, y, z):
    n = min(len(x), len(y), len(z))
    x, y, z = x[:n], y[:n], z[:n]
    prod, cx, nx, t = mul8(x, y), conj8(x), norm8(x), trilinear8(x, y, z)
    for k in range(n):
        xo, yo, zo = (from_vector8(w[k].tolist()) for w in (x, y, z))
        assert prod[k].tolist() == list(to_vector8(oct_mul(xo, yo)))
        assert cx[k].tolist() == list(to_vector8(conj(xo)))
        assert nx[k] == norm(xo)
        assert t[k] == trilinear(xo, yo, zo)
    assert all(h.all() for h in octonion_identities(x, y, z))


@given(coordinate_batches, coordinate_batches)
@settings(max_examples=30, deadline=None)
def test_batched_triples_match_prop_mult_triple(u, v):
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    triples = mult_triples(u, v)
    assert not triality_defects(*triples).any()
    for k in range(n):
        uo, vo = from_vector8(u[k].tolist()), from_vector8(v[k].tolist())
        single = prop_mult_triple(uo, vo)
        assert all(X[k] == Y for X, Y in zip(triples, single))
        assert single[0] == wedge(to_vector8(uo), to_vector8(vo)).scale(2)


def test_triality_defects_name_the_failing_element():
    X1, X2, X3 = mult_triples(np.eye(8, dtype=np.int64)[:5],
                              np.eye(8, dtype=np.int64)[::-1][:5])
    num = X2.num.copy()
    num[3] += X2.den * wedge(to_vector8(B_BASIS[0]),
                             to_vector8(B_BASIS[1])).num
    bad = triality_defects(X1, Bivector(num, X2.den), X3)
    assert bad.tolist() == [False, False, False, True, False]


def test_coordinates_near_2_31_overflow():
    x = np.full((2, 8), 2 ** 31 - 1, dtype=np.int64)
    for call in (lambda: mul8(x, x), lambda: norm8(2 * x),
                 lambda: trilinear8(x, x, x), lambda: mult_triples(x, x),
                 lambda: octonion_identities(x, x, x)):
        with pytest.raises(OverflowError):
            call()
