"""Integer 2x2 coset representatives, Gram reduction, strong primitivity."""

import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octolift.coset import (GramTriple, MAT2_ZERO, breve, divisor_cosets,
                            divisor_grams, gram, hnf_left_cosets,
                            hnf_right_cosets, is_strongly_primitive, mat2,
                            mat2_add, mat2_det, mat2_scale, mat2_transpose,
                            pair_act, reduce_gram, row_hnf, smith_divisors)

from oracles import mat2_mul

ints = st.integers(-9, 9)
mats = st.builds(mat2, ints, ints, ints, ints)


def _sigma1(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_hnf_left_cosets_count_and_distinctness():
    for n in range(1, 60):
        reps = hnf_left_cosets(n)
        assert len(reps) == _sigma1(n)
        assert len(set(reps)) == len(reps)
        for r in reps:
            assert mat2_det(r) == n


def test_hnf_cosets_are_inequivalent():
    # no two representatives differ by a GL2(Z) unit on the left
    units = [mat2(a, b, c, d)
             for a, b, c, d in product(range(-2, 3), repeat=4)
             if abs(a * d - b * c) == 1]
    for n in (4, 6):
        reps = hnf_left_cosets(n)
        for i, r in enumerate(reps):
            for s in reps[i + 1:]:
                assert all(mat2_mul(u, r) != s for u in units)


def test_hnf_right_cosets_are_transposes():
    for n in (1, 5, 12):
        assert hnf_right_cosets(n) == [mat2_transpose(m)
                                       for m in hnf_left_cosets(n)]


def test_hnf_rejects_nonpositive():
    with pytest.raises(ValueError):
        hnf_left_cosets(0)


def _pos_semidef_triples():
    return st.tuples(st.integers(0, 12), st.integers(-12, 12),
                     st.integers(0, 12)).filter(
        lambda t: 4 * t[0] * t[2] - t[1] * t[1] >= 0).map(
        lambda t: GramTriple(*t))


def _transform(t, u):
    """u^t S u on triple coordinates for u = ((a, b), (c, d))."""
    (a, b), (c, d) = u
    return GramTriple(t.a * a * a + t.b * a * c + t.c * c * c,
                      2 * t.a * a * b + t.b * (a * d + b * c)
                      + 2 * t.c * c * d,
                      t.a * b * b + t.b * b * d + t.c * d * d)


@given(_pos_semidef_triples())
@settings(max_examples=300)
def test_reduce_gram_canonical_idempotent(t):
    r = reduce_gram(t)
    assert (0 <= r.b <= r.a <= r.c) or (r.a == 0 and r.b == 0 and r.c >= 0)
    assert r.disc() == t.disc()
    assert reduce_gram(r) == r


@given(_pos_semidef_triples(), st.sampled_from([
    mat2(1, 1, 0, 1), mat2(1, 0, 1, 1), mat2(0, -1, 1, 0),
    mat2(2, 1, 1, 1), mat2(1, -3, 0, 1), mat2(-1, 0, 0, 1)]))
@settings(max_examples=300)
def test_reduce_gram_is_a_class_invariant(t, u):
    assert reduce_gram(_transform(t, u)) == reduce_gram(t)


def test_reduce_gram_rejects_indefinite():
    with pytest.raises(ValueError):
        reduce_gram(GramTriple(1, 5, 1))


@given(mats, mats)
def test_gram_of_pair_action(lam1, lam2):
    lam = (lam1, lam2)
    for g in (mat2(1, 1, 0, 1), mat2(0, -1, 1, 0), mat2(2, 1, 1, 1)):
        t = gram(pair_act(lam, g))
        s = gram(lam)
        # g^t S g on triple coordinates
        a, b = g[0][0], g[0][1]
        c, d = g[1][0], g[1][1]
        na = s.a * a * a + s.b * a * c + s.c * c * c
        nc = s.a * b * b + s.b * b * d + s.c * d * d
        nb = 2 * s.a * a * b + s.b * (a * d + b * c) + 2 * s.c * c * d
        assert t == GramTriple(na, nb, nc)


@given(mats, mats)
def test_gram_closed_form_is_the_det_definition(T1, T2):
    # (T1, T2) = det(T1 + T2) - det T1 - det T2
    assert gram((T1, T2)) == GramTriple(
        mat2_det(T1),
        mat2_det(mat2_add(T1, T2)) - mat2_det(T1) - mat2_det(T2),
        mat2_det(T2))


def _brute_strongly_primitive(lam, bound=6):
    """Only unit r in M2(Z) with |det r| <= bound keep lam . r^{-1} integral."""
    for entries in product(range(-bound, bound + 1), repeat=4):
        r = mat2(*entries)
        n = mat2_det(r)
        if n == 0 or abs(n) == 1 or abs(n) > bound:
            continue
        adj = ((r[1][1], -r[0][1]), (-r[1][0], r[0][0]))
        out = pair_act(lam, adj)
        if all(e % n == 0 for T in out for row in T for e in row):
            return False
    return True


def test_strong_primitivity_against_brute_force():
    rng = random.Random(11)
    checked_both = 0
    for _ in range(60):
        lam = (mat2(*(rng.randint(-3, 3) for _ in range(4))),
               mat2(*(rng.randint(-3, 3) for _ in range(4))))
        if lam == (MAT2_ZERO, MAT2_ZERO):
            continue
        d1, d2 = smith_divisors(lam)
        if d2 == 0 or d2 * d2 > 9:
            continue
        got = is_strongly_primitive(lam)
        want = _brute_strongly_primitive(lam, bound=d2 * d2)
        assert got == want
        checked_both += 1
        # scaling always destroys strong primitivity; cross-check brute force
        lam2 = (tuple(tuple(2 * e for e in row) for row in lam[0]),
                tuple(tuple(2 * e for e in row) for row in lam[1]))
        assert not is_strongly_primitive(lam2)
        assert not _brute_strongly_primitive(lam2, bound=4)
    assert checked_both > 20


def test_smith_divisors_row_stack_is_the_wrong_matrix():
    # the vec-column convention matters: stacking rows of T1 over rows of T2
    # gives different divisors for this pair
    lam = (mat2(1, -3, 1, 2), mat2(-2, 0, 2, 0))
    row_stacked = _ref_smith_divisors(
        [lam[0][0], lam[0][1], lam[1][0], lam[1][1]])
    assert smith_divisors(lam) != row_stacked
    # brute force agrees with the vec-column divisors, not the row stack
    want = _brute_strongly_primitive(lam, bound=9)
    assert (smith_divisors(lam) == (1, 1)) == want
    assert (row_stacked == (1, 1)) != want


def test_breve_is_strongly_primitive_with_given_gram():
    for a in range(1, 4):
        for b in range(a + 1):
            for c in range(a, 5):
                t = GramTriple(a, b, c)
                lam = breve(t)
                assert gram(lam) == t
                assert is_strongly_primitive(lam)


def test_breve_has_gram_t_and_is_strongly_primitive_on_all_small_triples():
    for a, b, c in product(range(-4, 5), repeat=3):
        t = GramTriple(a, b, c)
        lam = breve(t)
        assert gram(lam) == t
        assert is_strongly_primitive(lam)


def test_divisor_cosets_structure():
    t = GramTriple(1, 0, 1)
    lam = breve(t)
    cosets = divisor_cosets(lam)
    # strongly primitive pairs admit only the unit coset
    assert len(cosets) == 1 and cosets[0][0] == mat2(1, 0, 0, 1)
    # an imprimitive multiple picks up every divisor of 2^2
    lam2 = (tuple(tuple(2 * e for e in row) for row in lam[0]),
            tuple(tuple(2 * e for e in row) for row in lam[1]))
    dets = sorted({abs(mat2_det(r)) for r, _ in divisor_cosets(lam2)})
    assert dets == [1, 2, 4]
    for r, mu in divisor_cosets(lam2):
        assert pair_act(mu, r) == lam2


def test_divisor_cosets_rejects_degenerate():
    with pytest.raises(ValueError):
        divisor_cosets((MAT2_ZERO, MAT2_ZERO))
    with pytest.raises(ValueError):
        divisor_cosets((mat2(1, 0, 0, 0), mat2(2, 0, 0, 0)))


# --- reference oracles: the minors-gcd Smith divisors and the trial loop ------

def _ref_smith_divisors(rows):
    """(d1, d2) of a 4x2 integer matrix from its determinantal divisors:
    d1 = gcd of the entries, d1*d2 = gcd of the six 2x2 minors."""
    g1 = 0
    for row in rows:
        for e in row:
            g1 = gcd(g1, e)
    g2 = 0
    for i in range(4):
        for j in range(i + 1, 4):
            g2 = gcd(g2, rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0])
    if g1 == 0:
        return (0, 0)
    return (g1, g2 // g1)


def _vec_stack(lam):
    T1, T2 = lam
    return [(T1[i][j], T2[i][j]) for i in range(2) for j in range(2)]


def _pair_from_stack(rows):
    return (mat2(*(x for x, _ in rows)), mat2(*(y for _, y in rows)))


def _ref_divisor_cosets(lam):
    """Every HNF coset r of every determinant n | d2^2, kept when
    lam . r^{-1} is integral."""
    d2 = _ref_smith_divisors(_vec_stack(lam))[1]
    out = []
    for n in range(1, d2 * d2 + 1):
        if (d2 * d2) % n:
            continue
        for r in hnf_left_cosets(n):
            adj = ((r[1][1], -r[0][1]), (-r[1][0], r[0][0]))
            mu = pair_act(lam, adj)
            if all(e % n == 0 for T in mu for row in T for e in row):
                out.append((r, tuple(tuple(tuple(e // n for e in row)
                                           for row in T) for T in mu)))
    return out


def _random_pair(rng, size):
    return tuple(mat2(*(rng.randint(-size, size) for _ in range(4)))
                 for _ in range(2))


def test_smith_divisors_match_minors_reference():
    rng = random.Random(31)
    zero = (MAT2_ZERO, MAT2_ZERO)
    T = mat2(2, -4, 6, 0)
    pairs = [zero, (MAT2_ZERO, T), (T, MAT2_ZERO), (T, mat2_scale(-3, T))]
    for _ in range(3000):
        lam = _random_pair(rng, rng.choice((1, 3, 9)))
        k = rng.randint(-4, 4)
        pairs += [lam, (lam[0], mat2_scale(k, lam[0])), (MAT2_ZERO, lam[1])]
    for lam in pairs:
        assert smith_divisors(lam) == _ref_smith_divisors(_vec_stack(lam))
        if lam != zero:
            assert is_strongly_primitive(lam) == (smith_divisors(lam)
                                                  == (1, 1))
    assert smith_divisors(zero) == (0, 0)
    assert smith_divisors((T, mat2_scale(-3, T))) == (2, 0)


def test_one_divisor_coset_iff_strongly_primitive():
    # the divisor cosets are the lattices between the row lattice and Z^2,
    # so there is one exactly when the row lattice is Z^2
    rng = random.Random(43)
    kinds = set()
    for _ in range(3000):
        lam = _random_pair(rng, rng.choice((1, 2, 4)))
        k = rng.choice((1, 1, 1, 2, 3))
        lam = (mat2_scale(k, lam[0]), mat2_scale(k, lam[1]))
        if row_hnf(lam)[2] == 0:   # rank below 2: infinitely many cosets
            continue
        primitive = is_strongly_primitive(lam)
        assert (len(divisor_grams(lam)) == 1) == primitive
        kinds.add(primitive)
    assert kinds == {True, False}


def _pair_with_row_lattice(rng, p, q, t):
    """A pair whose vec-column stack has row lattice Z(p, q) + Z(0, t),
    then moved by a random unimodular g, which multiplies that lattice by g
    and keeps its Smith divisors."""
    rows = [(p, q), (0, t)]
    for _ in range(2):
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append((x * p, x * q + y * t))
    rng.shuffle(rows)
    g = mat2(1, 0, 0, 1)
    for _ in range(3):
        g = mat2_mul(g, rng.choice((mat2(1, 1, 0, 1), mat2(1, 0, -1, 1),
                                    mat2(0, 1, 1, 0))))
    return pair_act(_pair_from_stack(rows), g)


def test_row_hnf_is_canonical():
    # row operations on the stack leave the row lattice, so its HNF, alone
    rng = random.Random(41)
    for _ in range(500):
        lam = _random_pair(rng, 6)
        p, q, t = row_hnf(lam)
        assert p >= 0 and (0 <= q < t or t == 0)
        rows = _vec_stack(lam)
        rng.shuffle(rows)
        k = rng.randint(-5, 5)
        rows[0] = (rows[0][0] + k * rows[1][0], rows[0][1] + k * rows[1][1])
        assert row_hnf(_pair_from_stack(rows)) == (p, q, t)


def test_divisor_cosets_match_trial_reference():
    rng = random.Random(37)
    pairs = []
    while len(pairs) < 300:   # random pairs and their multiples
        lam = _random_pair(rng, rng.choice((2, 4, 8)))
        k = rng.choice((1, 1, 2, 3))
        lam = (mat2_scale(k, lam[0]), mat2_scale(k, lam[1]))
        if 0 < smith_divisors(lam)[1] <= 12:
            pairs.append(lam)
    for p in range(1, 13):    # every row HNF with d2 <= 12
        for t in range(1, 13):
            for q in range(t):
                if p * t <= 12 * gcd(p, q, t):
                    pairs.append(_pair_with_row_lattice(rng, p, q, t))
    seen = set()
    for lam in pairs:
        got = divisor_cosets(lam)
        assert set(got) == set(_ref_divisor_cosets(lam))
        assert len(set(got)) == len(got)
        for r, mu in got:
            assert r[1][0] == 0 and 0 <= r[0][1] < r[1][1]
            assert pair_act(mu, r) == lam
        seen.add(smith_divisors(lam))
    assert {(1, d2) for d2 in range(1, 13)} <= seen


@st.composite
def _divisor_pairs(draw):
    """A pair with small entries scaled by 1..4 (d2 up to about 12 and
    beyond), or a pair with a prescribed row HNF of d2 <= 12."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        lam = _random_pair(rng, draw(st.sampled_from((1, 2, 4))))
        k = draw(st.integers(1, 4))
        return (mat2_scale(k, lam[0]), mat2_scale(k, lam[1]))
    p, t = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    q = draw(st.integers(0, t - 1))
    k = gcd(p, q, t)
    if p * t > 12 * k:     # d2 = p t / d1 > 12: keep d1, shrink d2
        p, q, t = k, 0, k
    return _pair_with_row_lattice(rng, p, q, t)


@settings(max_examples=400, deadline=None)
@given(_divisor_pairs())
def test_divisor_grams_match_divisor_cosets(lam):
    if row_hnf(lam)[2] == 0:    # zero or rank-deficient: both refuse
        for enumerate_cosets in (divisor_cosets, divisor_grams):
            with pytest.raises(ValueError):
                enumerate_cosets(lam)
        return
    assert divisor_grams(lam) == [(abs(mat2_det(r)), gram(mu))
                                  for r, mu in divisor_cosets(lam)]
