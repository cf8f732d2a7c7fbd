"""Exact identities of the split octonion algebra (Zorn vector matrices)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from octolift.octonion import (BASIS, B_BASIS, EPS1, EPS2, UNIT, Octonion,
                               conj, from_vector8, norm, oct_mul,
                               to_vector8, trace, trilinear)

from oracles import qval

scalars = st.fractions(min_value=-9, max_value=9,
                       max_denominator=4) | st.integers(-9, 9)
triples = st.tuples(scalars, scalars, scalars)
octonions = st.builds(Octonion.make, scalars, triples, triples, scalars)


def test_unit_is_identity():
    for o in BASIS.values():
        assert oct_mul(UNIT, o) == o == oct_mul(o, UNIT)


def test_idempotents():
    assert oct_mul(EPS1, EPS1) == EPS1
    assert oct_mul(EPS2, EPS2) == EPS2
    assert EPS1 + EPS2 == UNIT


@given(octonions, octonions)
@settings(max_examples=200)
def test_norm_multiplicative(x, y):
    assert norm(oct_mul(x, y)) == norm(x) * norm(y)


@given(octonions, octonions)
@settings(max_examples=200)
def test_conj_antihomomorphism(x, y):
    assert conj(oct_mul(x, y)) == oct_mul(conj(y), conj(x))


@given(octonions)
def test_conj_involution_and_norm(x):
    assert conj(conj(x)) == x
    assert oct_mul(x, conj(x)) == UNIT.scale(norm(x))
    assert norm(conj(x)) == norm(x)
    assert trace(x) == trace(conj(x))


@given(octonions, octonions)
@settings(max_examples=200)
def test_alternative_laws(x, y):
    assert oct_mul(x, oct_mul(x, y)) == oct_mul(oct_mul(x, x), y)
    assert oct_mul(oct_mul(y, x), x) == oct_mul(y, oct_mul(x, x))


@given(octonions, octonions, octonions)
@settings(max_examples=200)
def test_trilinear_cyclic(x, y, z):
    t = trilinear(x, y, z)
    assert t == trilinear(y, z, x) == trilinear(z, x, y)
    assert t == trace(oct_mul(x, oct_mul(y, z)))


@given(octonions, octonions)
def test_trace_symmetric(x, y):
    assert trace(oct_mul(x, y)) == trace(oct_mul(y, x))


@given(octonions)
def test_vector8_round_trip(x):
    assert from_vector8(to_vector8(x)) == x


@given(octonions)
def test_qform_matches_quadspace(x):
    # the b-basis coordinates carry q = -n over to the split form
    assert qval(to_vector8(x)) == -norm(x)


def test_quadratic_minimal_polynomial():
    for o in BASIS.values():
        sq = oct_mul(o, o)
        assert sq == o.scale(trace(o)) - UNIT.scale(norm(o))


def test_integer_coordinates_stay_integers():
    x = Octonion.make(2, (1, -3, 0), (4, 0, -1), 5)
    y = oct_mul(x, conj(x))
    assert all(type(c) is int for c in (y.a, *y.v, *y.phi, y.d))
    assert y == UNIT.scale(norm(x))


def test_b_basis_is_the_coordinate_basis():
    for k, o in enumerate(B_BASIS):
        assert to_vector8(o) == tuple(int(i == k) for i in range(8))
