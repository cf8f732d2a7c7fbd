"""Bessel evaluation, the beta pairing, Whittaker values, lattice sums,
and the positivity oracle."""

import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb, exp, pi, sqrt
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.optimize import minimize

from octolift.coset import GramTriple, gram, mat2
from octolift import quadspace, whittaker
from octolift.quadspace import E_PLUS, F_PLUS, H_PLUS, GaussRational, wedge
from octolift.whittaker import (J4, LeviPoint, Y0, Y1,
                                archimedean_integral_check, bessel_k_row,
                                beta_fn, boost_u, pairing22,
                                positivity_oracle, q_poincare, s_v_sum,
                                whittaker_eval, _plane_rotation, _s_v_exact,
                                _sym_power_batch)

from oracles import (alternating_binomial_sum,
                     archimedean_integral_quad_vec, bvv, mat2_to_vec22, pr_K,
                     q_poincare_by_pairs, sym2_power,
                     sym_power_by_convolution, vectors_by_norm)


# --- Bessel ---------------------------------------------------------------------

BESSEL_X = (0.05, 0.1, 0.5, 1.0, 2.7, 10.0, 40.0, 120.0, 300.0)


def _besselk_mp(n: int, x: float) -> float:
    with mp.workdps(30):
        return float(mp.besselk(n, x))


def test_bessel_k_row_against_mpmath():
    for x in BESSEL_X:
        row = bessel_k_row(22, x)
        assert len(row) == 23
        for n, got in enumerate(row):
            want = _besselk_mp(n, x)
            assert abs(got - want) <= 1e-13 * want
    assert len(bessel_k_row(0, 1.0)) == 1


def test_bessel_k_row_on_an_array():
    xs = np.array(BESSEL_X)
    rows = bessel_k_row(22, xs)
    assert rows.shape == (23, len(xs))
    for k, x in enumerate(BESSEL_X):
        assert list(rows[:, k]) == list(bessel_k_row(22, x))
    with pytest.raises(ValueError):
        bessel_k_row(3, np.array([1.0, 0.0]))


# --- beta and Whittaker values ----------------------------------------------------

def test_beta_reference_values():
    r = LeviPoint.identity()
    assert abs(beta_fn(Y1, Y0, r) - (-4.0)) < 1e-12
    assert abs(beta_fn(Y0, Y1, r)) < 1e-12


def test_beta_closed_form_along_the_line():
    T = np.array([0.2, -0.9, -1.1, -0.2])
    for t, s, theta in product((0.5, 1.0, 2.0), (-1.5, 0.0, 0.7),
                               (0.0, 0.4, -0.8)):
        u = boost_u(theta)
        w = t * pairing22(T, u @ Y1).real
        m = np.array([[1.0, s * t], [0.0, t]])
        got = beta_fn(Y0, T, LeviPoint(m, u))
        want = complex(-2.0 * s * t, 2.0 - w)
        assert abs(got - want) < 1e-12


def test_levi_point_validation():
    with pytest.raises(ValueError):
        LeviPoint(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(4))
    with pytest.raises(ValueError):
        LeviPoint(np.eye(2), 2.0 * np.eye(4))


def test_whittaker_eval_shape_and_degeneracy():
    val = whittaker_eval(Y1, Y0, LeviPoint.identity(), 3)
    assert len(val.components) == 7
    # |beta| = 4 with phase -1: components are (-1)^v K_|v|(4)
    for v in range(-3, 4):
        want = (-1.0) ** v * _besselk_mp(abs(v), 4.0)
        assert abs(val.component(v) - want) < 1e-12
    with pytest.raises(ValueError):
        whittaker_eval(Y0, Y1, LeviPoint.identity(), 3)


def test_boost_u_fixes_y0_and_preserves_form():
    from octolift.whittaker import J4
    for theta in (-1.2, 0.3, 2.0):
        u = boost_u(theta)
        assert np.max(np.abs(u.T @ J4 @ u - J4)) < 1e-12
        assert np.max(np.abs(u @ Y0 - Y0)) < 1e-12


def test_s_v_sum_identity_small():
    for v in (-7, -2, 0, 1, 6):
        for X in (0.5, 2.0):
            want = pi * exp(-X) * (1j ** v) / 2
            assert abs(s_v_sum(v, X) - want) < 1e-12 * abs(want)


def _s_v_sum_mp(v: int, X: float) -> complex:
    """Reference S_v(X): the defining sum in 40 + 4|v| digits, with
    K_{n+1/2} by its terminating series."""
    def k_half(n, x):
        s = mp.mpf(0)
        for k in range(n + 1):
            s += (mp.factorial(n + k)
                  / (mp.factorial(k) * mp.factorial(n - k) * (2 * x) ** k))
        return mp.sqrt(mp.pi / (2 * x)) * mp.e ** (-x) * s

    av = abs(v)
    sgn = (v > 0) - (v < 0)
    with mp.workdps(40 + 4 * av):
        x = mp.mpf(X)
        total = mp.mpc(0)
        for k in range(av // 2 + 1):
            phase = (mp.mpc(0, sgn) * x) ** (av - 2 * k) if av else mp.mpf(1)
            total += (comb(av, 2 * k) * phase
                      * mp.mpf(2) ** (mp.mpf(2 * k - 1) / 2)
                      * mp.gamma(mp.mpf(2 * k + 1) / 2)
                      * x ** (-(mp.mpf(2 * av - 2 * k - 1) / 2))
                      * k_half(av - k - 1 if av - k >= 1 else 0, x))
        return complex(total)


def test_s_v_sum_against_extended_precision():
    for v in range(-22, 23):
        for X in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            want = _s_v_sum_mp(v, X)
            assert abs(s_v_sum(v, X) - want) <= 1e-13 * abs(want)


@given(st.integers(-22, 22), st.floats(0.05, 20.0))
def test_s_v_sum_against_extended_precision_random(v, X):
    want = _s_v_sum_mp(v, X)
    assert abs(s_v_sum(v, X) - want) <= 1e-13 * abs(want)


def test_s_v_exact_part_is_i_to_the_v_over_2():
    half = Fraction(1, 2)
    units = tuple(GaussRational.make(re, im) for re, im in
                  ((half, 0), (0, half), (-half, 0), (0, -half)))   # i^v / 2
    for X in (Fraction(1, 10), Fraction(1, 3), Fraction(22, 7), Fraction(5),
              Fraction(123, 4)):
        for v in range(-30, 31):
            assert _s_v_exact(v, X) == units[v % 4]


def test_alternating_binomial_sum():
    # degree < m annihilates; F(k) = k^m gives (-1)^m m!
    assert alternating_binomial_sum([1, 2, 3], 3) == 0
    assert alternating_binomial_sum([0, 0, 0, 1], 3) == -6
    assert alternating_binomial_sum([5], 0) == 5


def test_gauss_kronrod_rule_degrees():
    """K15 integrates x^d exactly on [-1, 1] up to d = 22 (23 by symmetry),
    G7 up to d = 13 and not d = 14."""
    x = whittaker._GK_X
    for d in range(24):
        want = (1 - (-1) ** (d + 1)) / (d + 1)
        assert abs(whittaker._GK_W @ x ** d - want) < 1e-15
        if d <= 13:
            assert abs(whittaker._G7_W @ x ** d - want) < 1e-15
    assert abs(whittaker._G7_W @ x ** 14 - 2 / 15) > 1e-5


def test_archimedean_integral_matches_closed_form():
    T = (0.2, -0.9, -1.1, -0.2)
    num, closed = archimedean_integral_check(T, 1.0, boost_u(0.4), 4)
    for v in range(-4, 5):
        assert abs(num.component(v) - closed.component(v)) \
            < 1e-8 * abs(closed.component(v))
    # the quadrature's own estimate is small and bounds the actual error
    assert closed.err is None
    diff = np.array(num.components) - np.array(closed.components)
    assert np.linalg.norm(diff) <= num.err < 1e-8
    assert num.intervals > 0


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.integers(0, 8))
def test_archimedean_integral_against_quad_vec(t, theta, ell):
    """The batched Gauss-Kronrod rule against quad_vec's per-node
    integral: equal to 1e-10 relative, and its error estimate bounds the
    actual error."""
    T = (0.2, -0.9, -1.1, -0.2)
    u = boost_u(theta)
    num, closed = archimedean_integral_check(T, t, u, ell)
    want, _ = archimedean_integral_quad_vec(T, t, u, ell)
    got = np.array(num.components)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert np.linalg.norm(got - np.array(closed.components)) <= num.err


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.integers(0, 16))
def test_archimedean_integral_error_estimate_bounds_error(t, theta, ell):
    """Up to weight 16, where the rounding floor of the estimate is what
    ends the bisection, the estimate still bounds the distance to the
    closed form."""
    T = (0.2, -0.9, -1.1, -0.2)
    num, closed = archimedean_integral_check(T, t, boost_u(theta), ell)
    diff = np.array(num.components) - np.array(closed.components)
    assert np.linalg.norm(diff) <= num.err


@pytest.mark.parametrize("ell", [12, 16])
def test_archimedean_integral_error_estimate_at_high_weight(ell):
    T = (0.2, -0.9, -1.1, -0.2)
    for t in (0.5, 0.7, 1.3, 2.0):
        for theta in (-1.0, 0.0, 0.6, 1.0):
            num, closed = archimedean_integral_check(T, t, boost_u(theta),
                                                     ell)
            diff = np.array(num.components) - np.array(closed.components)
            assert np.linalg.norm(diff) <= num.err


def test_archimedean_integral_interval_cap(monkeypatch):
    """A capped integral stops at the cap and still reports an estimate
    that bounds its actual error."""
    T = (0.2, -0.9, -1.1, -0.2)
    full, closed = archimedean_integral_check(T, 0.7, boost_u(0.3), 6)
    monkeypatch.setattr(whittaker, "_GK_LIMIT", 7)
    num, _ = archimedean_integral_check(T, 0.7, boost_u(0.3), 6)
    assert num.intervals <= 7 < full.intervals
    diff = np.array(num.components) - np.array(closed.components)
    assert full.err < np.linalg.norm(diff) <= num.err


def test_archimedean_integral_preconditions():
    T = (0.2, -0.9, -1.1, -0.2)
    with pytest.raises(ValueError):
        archimedean_integral_check(T, -1.0, np.eye(4), 4)
    with pytest.raises(ValueError):
        archimedean_integral_check((1.0, 0, 0, 1.0), 1.0, np.eye(4), 4)
    with pytest.raises(ValueError):   # negative line
        archimedean_integral_check((1.0, 0.1, 0.1, -1.0), 1.0, np.eye(4), 4)
    with pytest.raises(ValueError):   # 2 - w <= 0
        archimedean_integral_check((0.2, 0.9, 1.1, -0.2), 3.0, np.eye(4), 4)


# --- the summand and the lattice sum ----------------------------------------------

def _bvv_exact(v1, v2, ell):
    """Independent exact route: the oracles' pr_K + sym2_power over
    rationals."""
    s = pr_K(wedge(v1, v2))
    cxx = complex(s.c_xx)
    cxy = complex(s.c_xy)
    cyy = complex(s.c_yy)
    nrm2 = abs(cxx) ** 2 + abs(cxy) ** 2 / 2.0 + abs(cyy) ** 2
    if nrm2 < 1e-18:
        return None
    poly = [complex(c) for c in sym2_power(s, ell)]
    return [p / nrm2 ** ((2 * ell + 1) / 2.0) for p in poly]


def test_bvv_matches_exact_projection():
    rng = np.random.RandomState(9)
    done = 0
    while done < 10:
        v1 = tuple(int(e) for e in rng.randint(-3, 4, size=8))
        v2 = tuple(int(e) for e in rng.randint(-3, 4, size=8))
        if _bvv_exact(v1, v2, 4) is None:
            continue
        for ell in (4, 5):      # an odd power sees the projection's sign
            exact = _bvv_exact(v1, v2, ell)
            got = bvv(v1, v2, ell)
            for a, b in zip(got, exact):
                assert abs(a - b) < 1e-10 * max(1.0, abs(b))
        done += 1


def test_bvv_degenerate_projection_raises():
    # a plane wedge whose projection onto the distinguished su(2) vanishes
    v1 = (0, 0, 1, -1, 1, -1, 0, 0)
    v2 = (1, -1, -1, -1, -1, 0, 1, 1)
    assert _bvv_exact(v1, v2, 16) is None
    with pytest.raises(ValueError):
        bvv(v1, v2, 16)


def test_vectors_by_norm_against_brute_force():
    got = vectors_by_norm(1, {0, 1, 2})
    brute = {0: [], 1: [], 2: []}
    for v in product(range(-1, 2), repeat=8):
        q = sum(v[i] * v[7 - i] for i in range(4))
        if q in brute:
            brute[q].append(v)
    for k in brute:
        assert sorted(got[k]) == sorted(brute[k])


def test_q_poincare_input_validation():
    with pytest.raises(ValueError):
        q_poincare(GramTriple(1, 0, 1), 12, 1)
    with pytest.raises(ValueError):
        q_poincare(GramTriple(1, 5, 1), 16, 1)
    for radius in (0, -1):
        with pytest.raises(ValueError, match="radius must be >= 1"):
            q_poincare(GramTriple(1, 0, 1), 16, radius)
    # (32 r^2 + 1)^2 (64 r^2 + 1) first exceeds 2^63 at r = 229
    with pytest.raises(ValueError, match="largest radius allowed is 228"):
        q_poincare(GramTriple(1, 0, 1), 16, 229)


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


@pytest.mark.parametrize("key", [(2, 0, 2), (2, 0, 1), (1, 0, 2)])
def test_q_poincare_matches_reference_csv(key):
    """Radius 1, weight 16, against the committed reference outputs, to
    1e-12 relative to the largest component."""
    path = REFERENCE / f"poincare_{key[0]}-{key[1]}-{key[2]}.csv"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert list(rows[:, 0]) == list(range(-16, 17))
    want = rows[:, 1] + 1j * rows[:, 2]
    got = np.array(q_poincare(GramTriple(*key), 16, 1).components)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --- the per-pair reference sum ----------------------------------------------------

def _prk_pairs_float(W1, W2):
    """(c_xx, c_xy, c_yy) rows for a batch of pairs, from the complex
    action matrices of e+, h+, f+ (C_k = J8 b_k - (J8 b_k)^t) and the
    trace form's Gram matrix, all in floats."""
    mats = [b.re / b.den + 1j * (b.im / b.den)
            for b in (E_PLUS, H_PLUS, F_PLUS)]
    j8 = np.eye(8)[::-1]
    cs = [j8 @ b - (j8 @ b).T for b in mats]
    ginv = np.linalg.inv(np.array([[np.trace(a @ b) for b in mats]
                                   for a in mats]))
    rhs = np.stack([np.einsum("ij,jk,ik->i", W1, c, W2) for c in cs])
    ce, ch, cf = ginv @ rhs
    return np.stack([-ce, 2.0 * ch, cf], axis=1), rhs


def _q_poincare_per_pair(A, B, T, ell, radius):
    """The sum before grouping: bvv for every pair (rows of A, B) with
    pairing T.b.  Returns the total, the sup-norm of each shell's
    contribution, the pair count and the number of distinct doubled trace
    triples (the groups)."""
    A, B = np.asarray(A, float), np.asarray(B, float)
    i1, i2 = np.nonzero(A @ B[:, ::-1].T == T.b)
    coeffs, rhs = _prk_pairs_float(A[i1], B[i2])
    terms = _sym_power_batch(coeffs, ell)
    shell = np.maximum(np.max(np.abs(A[i1]), axis=1),
                       np.max(np.abs(B[i2]), axis=1))
    shell_sup = [np.max(np.abs(terms[shell == s].sum(axis=0)))
                 for s in range(1, radius + 1)]
    groups = len(set(map(tuple, np.round(2 * rhs.T))))
    return terms.sum(axis=0), shell_sup, len(i1), groups


def _check_grouped(got, ref):
    total, shell_sup, pairs, groups = ref
    scale = np.max(np.abs(total))
    assert np.max(np.abs(np.array(got.components) - total)) <= 1e-12 * scale
    assert len(got.shell_sup) == len(shell_sup)
    for a, b in zip(got.shell_sup, shell_sup):
        assert abs(a - b) <= 1e-12 * scale
    assert (got.pairs, got.groups) == (pairs, groups)


def test_q_poincare_grouped_matches_per_pair_sum():
    """Key (2,0,2) at radius 1 against the per-pair sum over a brute-force
    enumeration of [-1, 1]^8: same total and tail, and the group counts
    add up to the brute-force pair count."""
    T = GramTriple(2, 0, 2)
    vecs = np.array(list(product(range(-1, 2), repeat=8)))
    q = np.einsum("ij,ij->i", vecs, vecs[:, ::-1]) // 2
    ref = _q_poincare_per_pair(vecs[q == T.a], vecs[q == T.c], T, 16, 1)
    assert ref[2] == 76560
    _check_grouped(q_poincare(T, 16, 1), ref)


def test_prk_matrices_check_the_fold_symmetry(monkeypatch):
    """Conjugating e+, h+, f+ by an integral isometry that does not commute
    with v_i <-> v_(7-i) keeps every su(2) relation the import check tests
    but breaks row i = row 7 - i, which must then raise."""
    n = np.zeros((8, 8), dtype=np.int64)
    n[0, 1], n[6, 7] = 1, -1      # 1 + n preserves the antidiagonal form
    g, g_inv = np.eye(8, dtype=np.int64) + n, np.eye(8, dtype=np.int64) - n
    for name in ("E_PLUS", "H_PLUS", "F_PLUS"):
        b = getattr(quadspace, name)
        monkeypatch.setattr(quadspace, name, SimpleNamespace(
            re=g @ b.re @ g_inv, im=g @ b.im @ g_inv, den=b.den))
    with pytest.raises(ArithmeticError, match="fold"):
        whittaker._prk_int_matrices()


def test_fold_set_enumerates_the_vectors():
    """Each fold with each t row of its pattern is one vector, v_i =
    (s_i + t_i)/2 and v_(7-i) = (s_i - t_i)/2: exactly the box's vectors
    of that norm, with their sup-norms."""
    for radius, q in ((1, 1), (2, 1), (2, 2), (2, 5)):
        f = whittaker._fold_set(radius, q)
        got = []
        for s, p in zip(f.folds, f.fold_pattern):
            for t, sup in zip(f.t[f.t_pattern == p], f.sup[f.t_pattern == p]):
                v = np.concatenate([s + t, (s - t)[::-1]]) // 2
                assert max(abs(v)) == sup
                got.append(tuple(int(x) for x in v))
        assert sorted(got) == sorted(vectors_by_norm(radius, {q})[q])
        assert f.patterns.tolist() == sorted(f.patterns.tolist())


def test_fold_pair_shell_counts_match_a_direct_count():
    """2,0,2 at radius 2: the pairs per shell that _pair_counts gives for
    the fold pairs of 40 sampled folds, against a count over the vectors
    with those folds; both shells are reached."""
    T = GramTriple(2, 0, 2)
    f = whittaker._fold_set(2, 2)
    pick = np.sort(np.random.default_rng(5).choice(len(f.folds), 40,
                                                   replace=False))
    hit, n = whittaker._pair_counts(f, f, 0, len(f.patterns), f.folds[pick],
                                    f.fold_pattern[pick], T.b, 2)
    got = np.zeros(hit.shape + (2,), dtype=np.int64)
    got[hit] = n
    vecs = np.array(vectors_by_norm(2, {2})[2])
    folds = vecs[:, :4] + vecs[:, :3:-1]
    index = {tuple(s): i for i, s in enumerate(f.folds.tolist())}
    fold_of = np.array([index[tuple(s)] for s in folds.tolist()])
    sup = np.max(np.abs(vecs), axis=1)
    want = np.zeros_like(got)
    for row, i in enumerate(pick):
        i1, i2 = np.nonzero(vecs[fold_of == i] @ vecs[:, ::-1].T == T.b)
        shell = np.maximum(sup[fold_of == i][i1], sup[i2]) - 1
        np.add.at(want[row], (fold_of[i2], shell), 1)
    assert (got == want).all()
    assert (want.sum(axis=(0, 1)) > 0).all()


@pytest.mark.parametrize("key", [(2, 0, 2), (2, 0, 1), (1, 0, 2), (1, 0, 1),
                                 (1, 1, 1)])
def test_q_poincare_equals_the_pair_by_pair_sum(key):
    """Radius 1: the fold split gives the same PoincareSum, bit for bit, as
    testing every pair of the box's vectors."""
    T = GramTriple(*key)
    vecs = vectors_by_norm(1, {T.a, T.c})
    assert q_poincare(T, 16, 1) == q_poincare_by_pairs(vecs[T.a], vecs[T.c],
                                                       T, 16, 1)


def test_q_poincare_at_radius_2_is_pinned():
    """1,0,1 at radius 2: the pair and group counts and the shell sup-norms
    that testing all 30,984^2 pairs of the box's vectors gave."""
    got = q_poincare(GramTriple(1, 0, 1), 16, 2)
    assert (got.pairs, got.groups) == (83056560, 32098)
    assert got.shell_sup == (43.122698801169776, 2.2243226055035117)


# --- the symmetric-power kernel ----------------------------------------------------

def _kernel_rows(monkeypatch, key, radius):
    """The coefficient rows q_poincare hands _sym_power_batch (the same
    at every weight)."""
    seen = []
    kernel = whittaker._sym_power_batch

    def record(coeffs, ell):
        seen.append(coeffs)
        return kernel(coeffs, ell)

    monkeypatch.setattr(whittaker, "_sym_power_batch", record)
    q_poincare(GramTriple(*key), 16, radius)
    monkeypatch.undo()
    return seen[0]


def _random_kernel_rows(rng, n):
    """Rows of random key integers in -30..30, zeros included, none all
    zero."""
    xyz = rng.integers(-30, 31, size=(n, 3))
    return whittaker._prk_coeffs(xyz[(xyz != 0).any(axis=1)])


def test_sym_power_batch_equals_the_convolution_bit_for_bit(monkeypatch):
    """The in-place coefficient-major kernel against the out-of-place
    convolution: 2,0,1's rows at radius 1, random rows at weights 16, 40
    and 200, and 2,0,2 at weight 400, whose powers overflow from v = -54.
    Equal as arrays, NaNs included, and byte for byte, signs of zero
    included."""
    rng = np.random.default_rng(21)
    cases = [(_kernel_rows(monkeypatch, (2, 0, 1), 1), 16)]
    assert len(cases[0][0]) == 1328
    cases += [(_random_kernel_rows(rng, 300), ell) for ell in (16, 40, 200)]
    cases.append((_kernel_rows(monkeypatch, (2, 0, 2), 1), 400))
    for coeffs, ell in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            got = _sym_power_batch(coeffs, ell)
            want = sym_power_by_convolution(coeffs, ell)
        assert got.shape == (len(coeffs), 2 * ell + 1)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()
    assert np.flatnonzero(~np.isfinite(got).all(axis=0))[0] - ell == -54


def test_sym_power_batch_zero_row_raises():
    coeffs = _random_kernel_rows(np.random.default_rng(4), 20)
    coeffs[7] = 0
    for kernel in (_sym_power_batch, sym_power_by_convolution):
        with pytest.raises(ValueError, match="degenerate projection"):
            kernel(coeffs, 16)


def test_sym_power_batch_peak_memory():
    """Three working arrays, the spare two freed before the final copy:
    the traced peak stays within 3.25 times the result."""
    coeffs = _random_kernel_rows(np.random.default_rng(9), 8400)
    assert len(coeffs) >= 8192
    tracemalloc.start()
    try:
        terms = _sym_power_batch(coeffs, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * terms.nbytes


# --- positivity oracle -------------------------------------------------------------

Y1_MAT = mat2(0, 1, -1, 0)
Y0_MAT = mat2(1, 0, 0, 1)


def test_mat2_to_vec22_conventions():
    assert tuple(mat2_to_vec22(Y1_MAT)) == tuple(Y1)
    assert tuple(mat2_to_vec22(Y0_MAT)) == tuple(Y0)
    # q = det under the identification
    m = mat2(2, -1, 3, 5)
    v = mat2_to_vec22(m)
    assert abs(pairing22(v, v).real / 2.0 - 13.0) < 1e-12


def test_positivity_oracle_reference_pairs():
    assert positivity_oracle((Y1_MAT, Y0_MAT)) == "positive"
    assert positivity_oracle((Y0_MAT, Y1_MAT)) == "swapped"


def test_positivity_oracle_degenerate():
    assert positivity_oracle((mat2(1, 0, 0, -1), Y0_MAT)) == "degenerate"


OTHER = {"positive": "swapped", "swapped": "positive"}

def _definite_pair(rng: random.Random):
    """A random pair with positive definite gram, drawn as criterion 13
    draws it."""
    while True:
        lam = tuple(mat2(*(rng.randint(-3, 3) for _ in range(4)))
                    for _ in range(2))
        if gram(lam).is_positive_definite():
            return lam


# Rejection sampling inside the draw: most pairs are not definite, and a
# hypothesis filter that rejects them trips its filter_too_much health check.
definite_pairs = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: _definite_pair(random.Random(seed)))


def _orientation(lam) -> float:
    """(T1, y0)(T2, y1) - (T1, y1)(T2, y0) through the (2,2) embedding:
    twice the oriented area of the pair's projection onto span(v1, v2)."""
    T1, T2 = (mat2_to_vec22(T) for T in lam)
    return (pairing22(T1, Y0) * pairing22(T2, Y1)
            - pairing22(T1, Y1) * pairing22(T2, Y0)).real


@given(definite_pairs)
def test_positivity_oracle_is_the_orientation_sign(lam):
    s = _orientation(lam)
    assert s != 0
    answer = positivity_oracle(lam)
    assert answer == ("positive" if s < 0 else "swapped")
    assert positivity_oracle((lam[1], lam[0])) == OTHER[answer]


def _random_levi(rng) -> LeviPoint:
    """A random point of {det m = 1} x SO(2,2)^0: m = k(th) a(y) n(x) and
    h = exp(J A) with A antisymmetric, so that h^t J h = J."""
    x, y, th = rng.uniform(-1.5, 1.5, size=3)
    c, s = np.cos(th), np.sin(th)
    m = (np.array([[c, -s], [s, c]]) @ np.diag([np.exp(y), np.exp(-y)])
         @ np.array([[1.0, x], [0.0, 1.0]]))
    a = np.triu(rng.uniform(-1.5, 1.5, size=(4, 4)), 1)
    return LeviPoint(m, scipy.linalg.expm(J4 @ (a - a.T)))


def test_positive_ordering_beta_lower_bound():
    """|beta| >= 2 disc^(1/4) on the normalized Levi for the ordering
    called positive."""
    rng = np.random.RandomState(4)
    prng = random.Random(4)
    for _ in range(40):
        lam = _definite_pair(prng)
        if positivity_oracle(lam) == "swapped":
            lam = (lam[1], lam[0])
        T1, T2 = (mat2_to_vec22(T) for T in lam)
        bound = 2.0 * gram(lam).disc() ** 0.25
        for _ in range(25):
            assert abs(beta_fn(T1, T2, _random_levi(rng))) >= bound


# numeric reference: the Nelder-Mead search the exact test replaced

_N1 = np.array([1.0, 0.0, 0.0, -1.0]) / sqrt(2.0)   # (b3 - b-3)/sqrt2
_N2 = np.array([0.0, 1.0, -1.0, 0.0]) / sqrt(2.0)   # (b4 - b-4)/sqrt2
_P1 = Y0 / sqrt(2.0)
_P2 = Y1 / sqrt(2.0)


def _levi_from_params(p) -> LeviPoint:
    """A 7-parameter chart of {det m = 1} x SO(2,2)^0: unipotent-diagonal-
    rotation Iwasawa coordinates on SL_2 and four plane rotations/boosts."""
    x, y, th, a, b, c, d = p
    co, si = np.cos(th), np.sin(th)
    m = (np.array([[1.0, x], [0.0, 1.0]])
         @ np.diag([np.exp(y / 2.0), np.exp(-y / 2.0)])
         @ np.array([[co, -si], [si, co]]))
    h = (_plane_rotation(_P1, _P2, a, J4)
         @ _plane_rotation(_N1, _N2, b, J4)
         @ _plane_rotation(_P1, _N1, c, J4)
         @ _plane_rotation(_P2, _N2, d, J4))
    return LeviPoint(m, h)


def _beta_infimum(lam) -> float:
    """Numerically minimize |beta_{[T1,T2]}| over the normalized Levi."""
    T1, T2 = (mat2_to_vec22(T) for T in lam)

    def f(p):
        return abs(beta_fn(T1, T2, _levi_from_params(p))) ** 2

    rng = np.random.RandomState(20210604)
    starts = [np.zeros(7)] + [rng.uniform(-1.5, 1.5, size=7)
                              for _ in range(5)]
    best = float("inf")
    for p0 in starts:
        res = minimize(f, p0, method="Nelder-Mead",
                       options={"maxiter": 500, "xatol": 1e-10,
                                "fatol": 1e-20})
        best = min(best, res.fun)
        if best < 1e-18:
            break
    return sqrt(best)


def test_positivity_oracle_against_numeric_infimum():
    """The numeric infimum of |beta| vanishes exactly for the ordering the
    exact test calls swapped (about 1 s per pair)."""
    rng = random.Random(13)
    for lam in [(Y1_MAT, Y0_MAT)] + [_definite_pair(rng) for _ in range(3)]:
        for order in (lam, (lam[1], lam[0])):
            vanishes = _beta_infimum(order) < 1e-8
            assert vanishes == (positivity_oracle(order) == "swapped")
