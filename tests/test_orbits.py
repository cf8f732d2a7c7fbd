"""Integral isometries of the split lattice and the pair-reduction pipeline."""

import hashlib
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octolift.coset import GramTriple
from octolift.orbits import (LatticeIsometry, SplitLattice, _augment,
                             _det_int, _eliminate, _in_group, _isometry,
                             _reduce_plane, _reduce_primitive, gram_of_pair,
                             levi_isometry, opposite_unipotent,
                             random_isometry, reduce_pair, siegel_unipotent,
                             swap_isometry)
from octolift.triality import int_inverse

from oracles import (_int_inv_transpose, invert_fraction_matrix, join_xy,
                     levi_by_action, opposite_by_action,
                     random_isometry_by_compose, siegel_by_action, split_xy,
                     swap_by_action)

LAT = SplitLattice(4)


def reduce_primitive_vector(v):
    """Some g with g v = a b_1 + b_{-1}, a = q(v), for v primitive: the
    row reduction of [I | v], with its product checked to lie in SO(L)(Z),
    as reduce_pair checks its own."""
    lat = SplitLattice(len(v) // 2)
    R = _augment(lat.rank, [v])
    a = _reduce_primitive(R, lat.rank)
    return _in_group(_isometry(lat, R)), a


def reduce_isotropic_plane(u1, u2):
    """Some g with g u1 = b_1, g u2 = b_2: the row reduction of
    [I | u1 u2], with its product checked to lie in SO(L)(Z)."""
    lat = SplitLattice(len(u1) // 2)
    R = _augment(lat.rank, [u1, u2])
    _reduce_plane(R, lat.rank, lat.rank + 1)
    return _in_group(_isometry(lat, R))


def _rand_vec(rng, bound=5):
    return tuple(rng.randint(-bound, bound) for _ in range(8))


def _identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _pad4(m):
    """diag(m, I) as a 4x4 matrix, for a 2x2 m."""
    return [list(m[0]) + [0, 0], list(m[1]) + [0, 0],
            [0, 0, 1, 0], [0, 0, 0, 1]]


def test_lattice_conventions():
    b = LAT.basis_vector
    assert b(1) == (1, 0, 0, 0, 0, 0, 0, 0)
    assert b(-1) == (0, 0, 0, 0, 0, 0, 0, 1)
    assert LAT.pairing(b(2), b(-2)) == 1
    assert LAT.qval(b(3)) == 0
    v = (1, 2, 3, 4, 5, 6, 7, 8)
    x, y = split_xy(LAT, v)
    assert join_xy(LAT, x, y) == v
    assert LAT.qval(v) == sum(a * b_ for a, b_ in zip(x, y))


def test_isometries_preserve_the_form():
    rng = random.Random(0)
    for _ in range(25):
        g = random_isometry(LAT, rng)
        u, w = _rand_vec(rng), _rand_vec(rng)
        assert LAT.qval(g.apply(u)) == LAT.qval(u)
        assert LAT.pairing(g.apply(u), g.apply(w)) == LAT.pairing(u, w)


def test_random_isometry_matches_the_composed_factors():
    """One running matrix gives the same isometry as composing the six
    factor isometries, and leaves rng in the same state."""
    for n, seeds in ((4, range(2000)), (3, range(200)), (5, range(200))):
        lat = SplitLattice(n)
        for seed in seeds:
            rng, ref = random.Random(seed), random.Random(seed)
            assert (random_isometry(lat, rng).matrix
                    == random_isometry_by_compose(lat, ref).matrix)
            assert rng.getstate() == ref.getstate()


def test_group_laws():
    rng = random.Random(1)
    e = LatticeIsometry.identity(LAT)
    for _ in range(15):
        g, h = random_isometry(LAT, rng), random_isometry(LAT, rng)
        v = _rand_vec(rng)
        assert g.compose(g.inverse()) == e
        assert g.inverse().compose(g) == e
        assert g.compose(h).apply(v) == g.apply(h.apply(v))


def test_generator_rejections():
    """Each factor checks the parameters its matrix is built from."""
    zero = [[0] * 4 for _ in range(4)]
    cases = [
        (levi_isometry, [[2, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 1, 0], [0, 0, 0, 1]]),        # det 2
        (levi_isometry, _pad4([[1, 2], [3, 4]])),             # det -2
        (levi_isometry, _pad4([[1, 2], [2, 4]])),             # singular
        (levi_isometry, _pad4([[0, 0], [0, 0]])),             # zero block
        (levi_isometry, _identity_matrix(3)),                 # 3x3
        (levi_isometry, _identity_matrix(4)[:3]),             # 3x4
        (siegel_unipotent, [[0, 1, 0, 0]] + zero[1:]),        # not skew
        (opposite_unipotent, [[1, 0, 0, 0]] + zero[1:]),      # diagonal
        (siegel_unipotent, [[0] * 5 for _ in range(5)]),      # 5x5
        (opposite_unipotent, [row[:3] for row in zero]),      # 4x3
        (siegel_unipotent, [[0, 1.5, 0, 0], [-1, 0, 0, 0]]
         + zero[2:]),                                         # 1.5 -> 1
        (levi_isometry, [[1, 0.5, 0, 0], [0, 1, 0, 0],
                         [0, 0, 1, 0], [0, 0, 0, 1]]),        # 0.5 -> 0
    ]
    for make, arg in cases:
        with pytest.raises(ValueError):
            make(LAT, arg)
    for i, j in ((2, 2), (0, 1), (1, 5), (-1, 2)):
        with pytest.raises(ValueError):
            swap_isometry(LAT, i, j)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(4, 1), (5, 1), (5, 2)]))
@settings(max_examples=40, deadline=None)
def test_sub_reduction_leaves_the_outer_rows_untouched(seed, shape):
    """The primitive-vector reduction at offset k touches only rows
    k..2n-1-k, and there it is the reduction of the rank 2(n-k) lattice:
    started from [I | v], the g block is diag(I_k, h, I_k) with h what the
    same code gives for the middle of v on its own lattice."""
    n, k = shape
    r = 2 * n
    rng = random.Random(seed)
    while True:
        v = _rand_vec(rng) + tuple(rng.randint(-5, 5) for _ in range(r - 8))
        if gcd(*v[k:r - k]) == 1:
            break
    g = random_isometry(SplitLattice(n), rng)
    R = [list(row) + [e] for row, e in zip(g.matrix, v)]
    _reduce_primitive(R, r, k)
    outer = [i for i in range(r) if not k <= i < r - k]
    assert all(R[i] == list(g.matrix[i]) + [v[i]] for i in outer)
    LatticeIsometry(SplitLattice(n), [row[:r] for row in R])

    R = _augment(r, [v])
    a = _reduce_primitive(R, r, k)
    h, a_small = reduce_primitive_vector(v[k:r - k])
    assert a == a_small
    eye = _identity_matrix(r)
    assert [row[:r] for row in R] == [
        eye[i] if i in outer else [0] * k + list(h.matrix[i - k]) + [0] * k
        for i in range(r)]


def test_reduce_primitive_vector():
    rng = random.Random(3)
    b = LAT.basis_vector
    done = 0
    while done < 40:
        v = _rand_vec(rng)
        if gcd(*v) != 1:
            continue
        g, a = reduce_primitive_vector(v)
        target = tuple(a * p + q for p, q in zip(b(1), b(-1)))
        assert g.apply(v) == target
        assert a == LAT.qval(v)
        done += 1


def test_reduce_primitive_vector_rejects_imprimitive():
    with pytest.raises(ValueError):
        reduce_primitive_vector((2, 0, 0, 0, 0, 0, 0, 2))


def _is_squarefree(n):
    n = abs(n)
    return all(n % (p * p) for p in range(2, isqrt(n) + 1))


def _canonical_pair(lat, a, bb, c):
    """(a b_1 + b_{-1}, bb b_1 + c b_2 + b_{-2}): reduce_pair's target."""
    b = lat.basis_vector
    return (tuple(a * p + q for p, q in zip(b(1), b(-1))),
            tuple(bb * p + c * q + s for p, q, s in zip(b(1), b(2), b(-2))))


def _random_admissible_pair(rng, bound=5):
    """A pair isometric to the canonical one for a random positive definite
    triple with odd squarefree -4 det S."""
    while True:
        a = rng.randint(1, bound)
        c = rng.randint(a, bound)
        bb = rng.choice(range(1, 2 * isqrt(a * c), 2))
        if bb * bb < 4 * a * c and _is_squarefree(bb * bb - 4 * a * c):
            break
    T1, T2 = _canonical_pair(LAT, a, bb, c)
    g = random_isometry(LAT, rng)
    return g.apply(T1), g.apply(T2), GramTriple(a, bb, c)


def _moved_pair(lat, a, bb, c, seed):
    """The canonical pair of (a, bb, c) moved by a random isometry, so
    that reduce_pair cannot return the identity at once."""
    pair = _canonical_pair(lat, a, bb, c)
    rng = random.Random(seed)
    while True:
        g = random_isometry(lat, rng)
        moved = tuple(g.apply(v) for v in pair)
        if moved != pair:
            return moved


def test_reduce_pair_rejects_even_disc():
    T1, T2 = _moved_pair(LAT, 1, 0, 1, 8)   # S = I, -4 det S even
    with pytest.raises(ValueError, match="must be odd"):
        reduce_pair(T1, T2)


def test_reduce_pair_needs_rank_8():
    lat = SplitLattice(3)
    T1, T2 = _moved_pair(lat, 1, 1, 1, 9)
    assert reduce_pair(*_canonical_pair(lat, 1, 1, 1))[0] == \
        LatticeIsometry.identity(lat)
    with pytest.raises(ValueError, match="needs n >= 4"):
        reduce_pair(T1, T2)


def test_reduce_pair_rejects_imprimitive_first_vector():
    # T1 = 3(b_1 + b_{-1}), T2 = b_1 + b_2 + b_{-2}: -4 det S = -27 is odd
    T1, T2 = _canonical_pair(LAT, 1, 1, 1)
    with pytest.raises(ValueError, match="not primitive"):
        reduce_pair(tuple(3 * e for e in T1), T2)


def test_reduce_pair_builds_one_matrix(monkeypatch):
    """The complementary plane is written into the matrix that reduces the
    pair, not found on a matrix of its own and pulled back."""
    import octolift.orbits as orbits
    T1, T2, t = _random_admissible_pair(random.Random(10))
    assert (T1, T2) != _canonical_pair(LAT, *t)
    honest, built = orbits._augment, []

    def counted(r, vectors):
        built.append(vectors)
        return honest(r, vectors)

    monkeypatch.setattr(orbits, "_augment", counted)
    reduce_pair(T1, T2)
    assert len(built) == 1


def test_reduce_isotropic_plane():
    rng = random.Random(5)
    b = LAT.basis_vector
    for _ in range(20):
        g = random_isometry(LAT, rng)
        u1, u2 = g.apply(b(1)), g.apply(b(2))
        h = reduce_isotropic_plane(u1, u2)
        assert h.apply(u1) == b(1)
        assert h.apply(u2) == b(2)


def test_reduce_isotropic_plane_rejects_bad_input():
    b = LAT.basis_vector
    with pytest.raises(ValueError):
        reduce_isotropic_plane(b(1), b(-1))   # not an isotropic plane
    u1 = tuple(2 * e for e in b(1))
    with pytest.raises(ValueError):
        reduce_isotropic_plane(u1, tuple(2 * e for e in b(2)))


def test_reduce_pair_reaches_canonical_form():
    rng = random.Random(6)
    for _ in range(25):
        T1, T2, t = _random_admissible_pair(rng)
        g, got = reduce_pair(T1, T2)
        assert got == t == gram_of_pair(T1, T2)
        target1, target2 = _canonical_pair(LAT, *t)
        assert g.apply(T1) == target1
        assert g.apply(T2) == target2
        assert LatticeIsometry(LAT, g.matrix) == g


def test_reductions_check_their_result_is_in_the_group(monkeypatch):
    """A wrong step that still reaches the target is caught: here every
    Siegel step (and so every siegel_unipotent factor) also exchanges
    b_n <-> b_{-n}, which preserves the form and the canonical targets
    (zero there) but has det -1."""
    import octolift.orbits as orbits
    honest = orbits._siegel

    def flipped(R, entries):
        honest(R, entries)
        n = len(R) // 2
        R[n - 1], R[n] = R[n], R[n - 1]

    monkeypatch.setattr(orbits, "_siegel", flipped)
    T1, T2, _t = _random_admissible_pair(random.Random(6))
    with pytest.raises(AssertionError, match="not in SO"):
        reduce_pair(T1, T2)
    with pytest.raises(AssertionError, match="determinant"):
        reduce_primitive_vector(T1)


def test_reduce_pair_orbit_transitivity():
    # two isometric images of the same triple land on the same canonical pair
    rng = random.Random(7)
    T1a, T2a, t = _random_admissible_pair(rng)
    while True:
        T1b, T2b, t2 = _random_admissible_pair(rng)
        if t2 == t:
            break
    ga, _ = reduce_pair(T1a, T2a)
    gb, _ = reduce_pair(T1b, T2b)
    h = gb.inverse().compose(ga)
    assert h.apply(T1a) == T1b and h.apply(T2a) == T2b


def test_reduction_output_is_pinned():
    """The exact matrices, not only the postconditions: one sha256 over
    what reduce_pair returns and one over what reduce_primitive_vector
    (n = 3, 4, 5, sparse inputs so that every branch runs) returns, for a
    fixed seed.  A change to the row operations or to the order of the
    factors shows here, and in the digest of the reduction it touches."""
    pairs, vectors = hashlib.sha256(), hashlib.sha256()
    rng = random.Random(1301)
    for _ in range(120):
        T1, T2, _t = _random_admissible_pair(rng)
        pairs.update(repr(reduce_pair(T1, T2)[0].matrix).encode())
    for n in (3, 4, 5):
        done = 0
        while done < 40:
            v = tuple(rng.choice((0, rng.randint(-6, 6)))
                      for _ in range(2 * n))
            if gcd(*v) != 1:
                continue
            vectors.update(repr(reduce_primitive_vector(v)[0].matrix).encode())
            done += 1
    assert pairs.hexdigest() == ("a6b72c15dea912063c7b1908832aec32"
                                 "cca12f44bd303d32923c810c67b08cc8")
    assert vectors.hexdigest() == ("805bf1c72fde0d57733ccc7fe63187fc"
                                   "85640a51424daa5b6c3388e8b0560368")


# --- isometries built without a re-check, and the row reduction -------------

def _generator(lat, kind, i, j, k):
    n = lat.n
    if kind == 0:
        A = _identity_matrix(n)
        A[i][j] = k
        return levi_isometry(lat, A)
    if kind == 3:
        return swap_isometry(lat, i + 1, j + 1)
    B = [[0] * n for _ in range(n)]
    B[i][j], B[j][i] = k, -k
    return (siegel_unipotent if kind == 1 else opposite_unipotent)(lat, B)


generators = st.tuples(st.integers(0, 3), st.integers(0, 3),
                       st.integers(0, 3), st.integers(-3, 3)).filter(
                           lambda t: t[1] != t[2])
products = st.lists(st.tuples(generators, st.booleans()), min_size=1,
                    max_size=8)


@given(products)
@settings(max_examples=60, deadline=None)
def test_compose_and_inverse_stay_isometries(steps):
    g = LatticeIsometry.identity(LAT)
    r = LAT.rank
    for (kind, i, j, k), invert in steps:
        h = _generator(LAT, kind, i, j, k)
        g = (h.inverse() if invert else h).compose(g)
        for m in (g.matrix, g.inverse().matrix):
            assert all(sum(m[a][x] * m[r - 1 - a][y] for a in range(r))
                       == (x + y == r - 1) for x in range(r) for y in range(r))
            assert _det_int(m) == 1
            LatticeIsometry(LAT, m)          # the checked constructor agrees


def test_compose_rejects_another_lattice():
    with pytest.raises(ValueError):
        LatticeIsometry.identity(LAT).compose(
            LatticeIsometry.identity(SplitLattice(3)))


@st.composite
def unimodular_square(draw, n):
    """A random n x n unimodular matrix: a row permutation, a sign (det -1
    included) and a word of elementary row operations."""
    m = [_identity_matrix(n)[p] for p in draw(st.permutations(range(n)))]
    m[0] = [draw(st.sampled_from([-1, 1])) * e for e in m[0]]
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1),
                                           st.integers(-3, 3)), max_size=8)):
        if i != j:
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return m


@st.composite
def column_systems(draw):
    """One or two integer columns in n = 3 or 4, primitive or not."""
    n = draw(st.sampled_from([3, 4]))
    k = draw(st.integers(1, 2))
    return n, draw(st.lists(st.lists(st.integers(-6, 6), min_size=n,
                                     max_size=n), min_size=k, max_size=k))


def _eliminate_x(cols, n, unimodular=False):
    """_eliminate of the given columns on the x rows of [I_2n | cols] (the
    columns padded by zero y parts): (M, W, columns), with M the x block of
    g, W its y block in natural order and columns the reduced x parts."""
    r = 2 * n
    R = _augment(r, [list(c) + [0] * n for c in cols])
    _eliminate(R, range(n), range(r, r + len(cols)), unimodular)
    assert all(R[i][j] == 0 for i in range(r) for j in range(r)
               if (i < n) != (j < n))
    assert all(R[i][c] == 0 for i in range(n, r) for c in range(r, len(R[0])))
    M = [row[:n] for row in R[:n]]
    W = [[R[r - 1 - i][r - 1 - j] for j in range(n)] for i in range(n)]
    return M, W, [[row[c] for row in R[:n]] for c in range(r, len(R[0]))]


@given(column_systems())
@settings(max_examples=150, deadline=None)
def test_row_reduction_carries_the_exact_inverse_transpose(system):
    n, cols = system
    M, W, reduced = _eliminate_x(cols, n)
    assert W == _int_inv_transpose(M)
    assert len(reduced) == len(cols)
    for j, (c, red) in enumerate(zip(cols, reduced)):
        assert red == [sum(a * b for a, b in zip(row, c)) for row in M]
        assert red[j] >= 0 and not any(red[j + 1:])     # the gcd pivot


@given(st.sampled_from([3, 4]).flatmap(unimodular_square))
@settings(max_examples=100, deadline=None)
def test_row_reduction_of_a_unimodular_square_is_its_inverse(A):
    # M A = I, so M = A^{-1} and M^{-t} = A^t; levi_isometry is its inverse
    n = len(A)
    M, W, reduced = _eliminate_x(list(zip(*A)), n, unimodular=True)
    assert reduced == _identity_matrix(n)
    assert W == [list(c) for c in zip(*A)]
    assert M == _int_inv_transpose(list(zip(*A)))
    g = levi_isometry(SplitLattice(n), A).matrix
    assert [list(row[:n]) for row in g[:n]] == [list(row) for row in A]
    assert ([[g[2 * n - 1 - i][2 * n - 1 - j] for j in range(n)]
             for i in range(n)] == _int_inv_transpose(A))


def test_inv_transpose_rejects_non_unimodular():
    # the exact inverse transpose comes from an elimination that refuses a
    # square whose columns do not extend to a basis: det +-2 or singular
    for m in ([[2, 0], [0, 1]], [[1, 2], [3, 4]],
              [[1, 2], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="not extend to a unimodular"):
            _eliminate_x(list(zip(*m)), 2, unimodular=True)
        with pytest.raises(ValueError, match="not extend to a unimodular"):
            levi_isometry(LAT, _pad4(m))


@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_int_inverse_matches_fraction_gauss_jordan(m):
    if _det_int(m) == 0:
        with pytest.raises(ValueError):
            int_inverse(m)
        return
    N, d = int_inverse(m)
    assert abs(d) == abs(_det_int(m))
    assert [[Fraction(e, d) for e in row] for row in N] == \
        invert_fraction_matrix(m)


# --- factors from row operations on the identity, against the action oracle

@st.composite
def skew4(draw):
    m = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            k = draw(st.integers(-5, 5))
            m[i][j], m[j][i] = k, -k
    return m


def _assert_same_and_checked(g, oracle):
    assert g.matrix == oracle.matrix
    assert LatticeIsometry(g.lattice, g.matrix).matrix == g.matrix


@given(unimodular_square(4))
@settings(max_examples=100, deadline=None)
def test_levi_factors_match_the_action_oracle(A):
    _assert_same_and_checked(levi_isometry(LAT, A), levi_by_action(LAT, A))


@given(skew4())
@settings(max_examples=60, deadline=None)
def test_unipotent_factors_match_the_action_oracle(B):
    _assert_same_and_checked(siegel_unipotent(LAT, B),
                             siegel_by_action(LAT, B))
    _assert_same_and_checked(opposite_unipotent(LAT, B),
                             opposite_by_action(LAT, B))


def test_swap_factors_match_the_action_oracle():
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                _assert_same_and_checked(swap_isometry(LAT, i, j),
                                         swap_by_action(LAT, i, j))


def _dense_product(g, h):
    r = len(g)
    return tuple(tuple(sum(g[i][k] * h[k][j] for k in range(r))
                       for j in range(r)) for i in range(r))


@given(products, products)
@settings(max_examples=60, deadline=None)
def test_sparse_compose_matches_the_dense_product(word1, word2):
    gs = []
    for word in (word1, word2):
        g = LatticeIsometry.identity(LAT)
        for (kind, i, j, k), invert in word:
            h = _generator(LAT, kind, i, j, k)
            g = (h.inverse() if invert else h).compose(g)
            gs.append(g)
    for g in gs:
        for h in gs:
            assert g.compose(h).matrix == _dense_product(g.matrix, h.matrix)
