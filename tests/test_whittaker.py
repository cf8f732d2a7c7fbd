"""Bessel evaluation, the beta pairing, Whittaker values, lattice sums,
and the positivity oracle."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb, exp, pi, sqrt
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.optimize import minimize

from octolift.coset import GramTriple, gram, mat2
from octolift import whittaker
from octolift.quadspace import Bivector, wedge
from octolift.scalar import GaussRational
from octolift.whittaker import (J4, LeviPoint, Y0, Y1,
                                archimedean_integral_check,
                                archimedean_integral_checks, bessel_k_row,
                                beta_fn, boost_u, pairing22,
                                positivity_oracle, q_poincare, s_v_sum,
                                whittaker_eval)

from oracles import (alternating_binomial_sum, archimedean_integral_single,
                     archimedean_integral_quad_vec, bvv, dyadic_mesh,
                     mat2_to_vec22, plane_rotation, pr_K,
                     q_poincare_by_pairs, s_v_exact, sym2_power,
                     sym_power_batch, sym_power_by_convolution,
                     vectors_by_norm)


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


def test_bessel_seeds_against_mpmath_on_the_whole_domain():
    """K_0 and K_1 from the trapezoid rule within 1e-13 relative of mpmath
    from x = 1e-8 (114 nodes) to 700; |beta| reaches near 0 as w -> 2."""
    for x in [1e-8, *np.geomspace(1e-4, 700.0, 200)]:
        for n, got in enumerate(bessel_k_row(1, x)):
            want = _besselk_mp(n, x)
            assert abs(got - want) <= 1e-13 * want


def test_bessel_k_row_columns_do_not_depend_on_the_array():
    """Arrays of 1 to 200 entries spread over 1e-8..700, so that most
    entries get more nodes than their own cut needs; each column is the
    row of its entry alone, bit for bit, and the shape follows x."""
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 8, 15, 120, 200):
        xs = np.exp(rng.uniform(np.log(1e-8), np.log(700.0), size))
        rows = bessel_k_row(6, xs)
        for k, x in enumerate(xs):
            assert rows[:, k].tobytes() == bessel_k_row(6, x).tobytes()
    assert bessel_k_row(4, np.ones((2, 3))).shape == (5, 2, 3)
    assert bessel_k_row(4, np.ones(0)).shape == (5, 0)
    with np.errstate(over="ignore"):
        assert bessel_k_row(2, 1e-300)[2] == np.inf
    for bad in (0.0, -1.0, 1e-301, np.nan):
        with pytest.raises(ValueError, match="x >= 1e-300"):
            bessel_k_row(1, np.array([1.0, bad]))


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


def test_boost_u_is_the_boost_in_the_plane_of_y1_and_b4_minus_b_minus_4():
    """The closed form against the plane boost built from outer products,
    entry by entry within 1e-14 of max(1, |entry|): the entries reach
    e^3 = 20, and the outer-product form rounds at that scale."""
    p = Y1 / sqrt(2.0)
    n = np.array([0.0, 1.0, -1.0, 0.0]) / sqrt(2.0)    # (b4 - b-4)/sqrt2
    for theta in np.linspace(-3.0, 3.0, 601):
        u = boost_u(theta)
        err = np.abs(u - plane_rotation(p, n, theta, J4))
        assert np.all(err < 1e-14 * np.maximum(1.0, np.abs(u)))


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


def test_s_v_sum_is_the_float_of_the_exact_sum():
    """s_v_sum takes each part's float from the unreduced Horner integers;
    it equals exactly the float of the reduced Gaussian rational."""
    def exact(v, X):
        return pi * exp(-X) * complex(s_v_exact(v, Fraction(X)))

    for v in range(-22, 23):
        for X in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert s_v_sum(v, X) == exact(v, X)


@given(st.integers(-22, 22),
       st.floats(min_value=5e-324, allow_infinity=False))
def test_s_v_sum_is_the_float_of_the_exact_sum_random(v, X):
    try:
        want = pi * exp(-X) * complex(s_v_exact(v, Fraction(X)))
    except OverflowError:
        with pytest.raises(OverflowError):
            s_v_sum(v, X)
        return
    assert s_v_sum(v, X) == want


def test_s_v_exact_part_is_i_to_the_v_over_2():
    half = Fraction(1, 2)
    units = tuple(GaussRational.make(re, im) for re, im in
                  ((half, 0), (0, half), (-half, 0), (0, -half)))   # i^v / 2
    for X in (Fraction(1, 10), Fraction(1, 3), Fraction(22, 7), Fraction(5),
              Fraction(123, 4)):
        for v in range(-30, 31):
            assert s_v_exact(v, X) == units[v % 4]


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
    that bounds its actual error.  Its uncapped dyadic mesh has 7
    intervals, accurate to 7e-17 on their own, so the cap of 5 clamps the
    mesh itself, to an actual error of about 1e-10."""
    T = (0.2, -0.9, -1.1, -0.2)
    full, closed = archimedean_integral_check(T, 0.7, boost_u(0.3), 6)
    monkeypatch.setattr(whittaker, "_GK_LIMIT", 5)
    num, _ = archimedean_integral_check(T, 0.7, boost_u(0.3), 6)
    assert num.intervals <= 5 < full.intervals
    diff = np.array(num.components) - np.array(closed.components)
    assert full.err < np.linalg.norm(diff) <= num.err


def _bits(components, err, intervals, rounds):
    return (np.asarray(components, dtype=complex).tobytes(),
            np.float64(err).tobytes(), intervals, rounds)


def _single_bits(T, points, ell):
    return [_bits(*archimedean_integral_single(T, t, u, ell))
            for t, u in points]


def _lockstep_bits(T, points, ell):
    return [_bits(num.components, num.err, num.intervals, num.rounds)
            for num, _ in archimedean_integral_checks(T, points, ell)]


@pytest.mark.parametrize("ell", range(17))
def test_lockstep_integrals_match_single_integrals(ell):
    """Every integral of a lockstep run is bit for bit the one integrated
    alone: components, error estimate, interval count and round count."""
    T = (0.2, -0.9, -1.1, -0.2)
    points = [(t, boost_u(theta)) for t in (0.5, 0.7, 1.3, 2.0)
              for theta in (-1.0, 0.0, 0.6, 1.0)]
    assert _lockstep_bits(T, points, ell) == _single_bits(T, points, ell)


def test_lockstep_capped_integral_keeps_its_neighbours(monkeypatch):
    """At weight 10, with a cap of 20 intervals, the middle integral is
    capped after one bisection of its 7-interval mesh and its neighbours
    converge on their meshes, below the cap: each gets what it gets alone,
    and the neighbours what they get uncapped."""
    T = (0.2, -0.9, -1.1, -0.2)
    points = [(3.0, boost_u(3.0)), (0.7, boost_u(0.3)), (1.3, boost_u(3.0))]
    uncapped = _single_bits(T, points, 10)
    monkeypatch.setattr(whittaker, "_GK_LIMIT", 20)
    got = _lockstep_bits(T, points, 10)
    assert got == _single_bits(T, points, 10)
    assert [g[2:] for g in got] == [(8, 1), (17, 2), (7, 1)]
    assert got[0] == uncapped[0] and got[2] == uncapped[2]
    assert uncapped[1][2] > 20


def test_lockstep_non_finite_integral_keeps_its_neighbours():
    """At weight 200 the K-Bessel row overflows near s = 0 at theta = 0, and
    that integral stops after its first round, which evaluates its whole
    dyadic mesh (12 intervals: smax = 2186.3 at t = 0.5, so K = 11), with
    a NaN estimate; at theta = 5 the integrals stay finite, whatever runs
    beside them."""
    T = (0.2, -0.9, -1.1, -0.2)
    points = [(0.5, boost_u(5.0)), (0.5, boost_u(0.0)), (1.0, boost_u(5.0))]
    with np.errstate(over="ignore", invalid="ignore"):
        got = _lockstep_bits(T, points, 200)
        assert got == _single_bits(T, points, 200)
        assert got[0] == _lockstep_bits(T, points[:1], 200)[0]
        nums = [num for num, _ in archimedean_integral_checks(T, points, 200)]
    assert not np.isfinite(nums[1].err)
    assert (nums[1].intervals, nums[1].rounds) == (12, 1)
    for num in (nums[0], nums[2]):
        assert np.isfinite(num.components).all() and np.isfinite(num.err)


def _integrand_calls(monkeypatch, points, ell):
    """The x argument of each _folded_rows call that
    archimedean_integral_checks makes at points."""
    calls = []
    folded = whittaker._folded_rows

    def counting(x, *args):
        calls.append(x.copy())
        return folded(x, *args)

    monkeypatch.setattr(whittaker, "_folded_rows", counting)
    archimedean_integral_checks((0.2, -0.9, -1.1, -0.2), points, ell)
    return calls


def _mesh_nodes(points, ell):
    """x = -2 t s at the 15 nodes of each interval of each point's dyadic
    mesh, point by point, as the first batch evaluates them."""
    out = []
    for t, _ in points:
        smax = (60.0 + 2.0 * ell * np.log(1.0 + ell)) / (2.0 * t) + 5.0
        br = np.array(dyadic_mesh(t, smax))
        mid, half = (br[:-1] + br[1:]) / 2.0, (br[1:] - br[:-1]) / 2.0
        s = (mid[:, None] + half[:, None] * whittaker._GK_X).ravel()
        out.append(-2.0 * t * s)
    return np.concatenate(out)


@pytest.mark.parametrize("ell", [4, 6])
def test_cli_grid_takes_at_most_two_rounds(monkeypatch, ell):
    """On the whittaker command's grid, the integrals start from their
    dyadic meshes and take at most two batched integrand calls (seven at
    weight 4 and eight at weight 6 from the single interval [0, smax]);
    the first call evaluates exactly the meshes, and a cap of 3 intervals
    clamps each mesh to 3 intervals."""
    points = [(t, boost_u(theta)) for t in (0.7, 1.3) for theta in (0.0, 0.6)]
    calls = _integrand_calls(monkeypatch, points, ell)
    assert 1 <= len(calls) <= 2
    assert np.array_equal(calls[0], _mesh_nodes(points, ell))
    monkeypatch.setattr(whittaker, "_GK_LIMIT", 3)
    calls = _integrand_calls(monkeypatch, points, ell)
    assert len(calls) == 1 and len(calls[0]) == len(points) * 3 * 15
    assert np.array_equal(calls[0], _mesh_nodes(points, ell))
    for t, _ in points:
        smax = (60.0 + 2.0 * ell * np.log(1.0 + ell)) / (2.0 * t) + 5.0
        assert whittaker._dyadic_mesh(t, smax).tolist() == [
            0.0, smax / 4.0, smax / 2.0, smax]


def test_beta_self_check_raises_under_python_o(monkeypatch):
    """The closed form of beta along the line is checked with a raise, not
    an assert, so a beta off by 1e-6 fails the call in process and in a
    fresh interpreter run with -O.  The check makes one pairing
    computation per point (_beta_rows, which beta_fn also runs)."""
    T = (0.2, -0.9, -1.1, -0.2)
    beta = whittaker._beta_rows
    monkeypatch.setattr(whittaker, "_beta_rows",
                        lambda *args: beta(*args) + 1e-6)
    with pytest.raises(ArithmeticError, match="t=0.7"):
        archimedean_integral_check(T, 0.7, boost_u(0.0), 4)
    code = ("from octolift import whittaker as w\n"
            "beta = w._beta_rows\n"
            "w._beta_rows = lambda *args: beta(*args) + 1e-6\n"
            "w.archimedean_integral_check((0.2, -0.9, -1.1, -0.2), 0.7, "
            "w.boost_u(0.0), 4)\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 1
    assert "ArithmeticError: beta along the line at t=0.7, s=0.0" \
        in proc.stderr, proc.stderr


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


def test_archimedean_integral_refuses_a_nan_t():
    """A NaN t fails the positivity test, which is written so that a
    comparison with NaN cannot pass it."""
    with pytest.raises(ValueError, match="t must be positive and finite"):
        archimedean_integral_check((0.2, -0.9, -1.1, -0.2), float("nan"),
                                   boost_u(0.3), 4)


def test_archimedean_integral_refuses_an_infinite_t():
    with pytest.raises(ValueError, match="t must be positive and finite"):
        archimedean_integral_check((0.2, -0.9, -1.1, -0.2), float("inf"),
                                   boost_u(0.3), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_archimedean_integral_refuses_a_non_finite_u(bad):
    """A u with a NaN or infinite entry is refused before any pairing is
    formed, by name, with no numpy warning."""
    u = boost_u(0.3)
    u[1, 1] = bad
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="u at t=0.7 must preserve"):
            archimedean_integral_check((0.2, -0.9, -1.1, -0.2), 0.7, u, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_archimedean_integral_refuses_a_non_finite_T(bad):
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="T must be finite"):
            archimedean_integral_check((bad, -0.9, -1.1, -bad), 0.7,
                                       boost_u(0.3), 4)


@pytest.mark.parametrize("m, h", [
    (np.nan * np.eye(2), np.eye(4)), (np.eye(2), np.nan * np.eye(4)),
    (np.eye(2), np.diag([1.0, np.inf, 0.0, 1.0]))])
def test_levi_point_refuses_non_finite_entries(m, h):
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="must"):
            LeviPoint(m, h)


@pytest.mark.parametrize("X", [float("inf"), float("nan")])
def test_s_v_sum_refuses_a_non_finite_x(X):
    with pytest.raises(ValueError, match="finite X > 0"):
        s_v_sum(3, X)


@pytest.mark.parametrize("ell", range(17))
def test_folded_row_is_the_integrand_at_s_and_minus_s(ell):
    """The folded real row at s, times i^(v mod 2), is f(s) + f(-s) with
    f the Whittaker value of whittaker_eval (beta by the pairing, no
    fold), to 1e-13 relative, at s = 0 and at random s in (0, smax]; odd
    and even v both occur, which pins the factor 2 and the unit."""
    T = (0.2, -0.9, -1.1, -0.2)
    rng = np.random.default_rng(ell)
    for t, theta in ((0.7, 0.0), (1.3, 0.6), (0.5, -1.0), (2.0, 1.0)):
        u = boost_u(theta)
        smax = (60.0 + 2.0 * ell * np.log(1.0 + ell)) / (2.0 * t) + 5.0
        s = np.append(0.0, smax * (1.0 - rng.random(6)))
        rows = whittaker._folded_rows(-2.0 * t * s,
                                      whittaker.line_shift(T, t, u),
                                      t ** ell * t, ell)
        assert rows.dtype == float and rows.shape == (7, 2 * ell + 1)
        for x, row in zip(s, rows):
            want = sum(np.array(whittaker_eval(
                Y0, T, LeviPoint(np.array([[1.0, y * t], [0.0, t]]), u),
                ell).components) for y in (x, -x))
            got = whittaker._unfold(row, ell)
            assert np.linalg.norm(got - want) \
                <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("ell", [0, 1, 4, 5])
def test_folded_components_have_exact_zero_parts(ell):
    """Components with v even are real, with v odd imaginary, and the
    other part is an exact +0."""
    num, closed = archimedean_integral_check((0.2, -0.9, -1.1, -0.2), 0.7,
                                             boost_u(0.3), ell)
    for v in range(-ell, ell + 1):
        zero = num.component(v).imag if v % 2 == 0 \
            else num.component(v).real
        assert zero == 0.0 and not np.signbit(zero)


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
    # the float64 key bound refuses every radius from 81, before the
    # packed keys (below (32 r^2 + 1)^2 (64 r^2 + 1), past 2^63 from
    # r = 229) or the key matrix (past 2^63 at radii in the thousands)
    # could wrap in int64
    for radius in (229, 10 ** 4):
        with pytest.raises(OverflowError, match="float64"):
            q_poincare(GramTriple(1, 0, 1), 16, radius)


def test_q_poincare_refuses_a_key_contraction_past_2_53(monkeypatch):
    """The float64 key contraction is exact to radius 80; from radius 81
    its bound reaches 2^53, and that is refused before any fold set is
    built."""
    def reached(radius, q):
        raise LookupError(radius)

    monkeypatch.setattr(whittaker, "_fold_set", reached)
    with pytest.raises(LookupError):
        q_poincare(GramTriple(1, 0, 1), 16, 80)
    with pytest.raises(OverflowError):
        q_poincare(GramTriple(1, 0, 1), 16, 81)


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
    action matrices of e+ = (P - iQ)/4, h+ = iR/2, f+ = -(P + iQ)/4
    (C_k = J8 b_k - (J8 b_k)^t) and the trace form's Gram matrix, all in
    floats."""
    P, Q, R = (X.num / X.den for X in whittaker._su2_basis())
    mats = [(P - 1j * Q) / 4, 1j * R / 2, -(P + 1j * Q) / 4]
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
    terms = sym_power_batch(coeffs, ell)
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
    """Conjugating P, Q, R by an integral isometry that does not commute
    with v_i <-> v_(7-i) keeps every su(2) relation the import check tests
    but breaks row i = row 7 - i, which must then raise."""
    n = np.zeros((8, 8), dtype=np.int64)
    n[0, 1], n[6, 7] = 1, -1      # 1 + n preserves the antidiagonal form
    g, g_inv = np.eye(8, dtype=np.int64) + n, np.eye(8, dtype=np.int64) - n
    basis = whittaker._su2_basis()
    monkeypatch.setattr(whittaker, "_su2_basis", lambda: tuple(
        Bivector(g @ b.num @ g_inv, b.den) for b in basis))
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


def _count_bincounts(monkeypatch):
    """The lengths of the histograms np.bincount returns from now on."""
    sizes = []
    bincount = np.bincount

    def record(*args, **kwargs):
        table = bincount(*args, **kwargs)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(whittaker.np, "bincount", record)
    return sizes


@pytest.mark.parametrize("key", [(2, 0, 2), (2, 0, 1), (1, 0, 2), (1, 0, 1),
                                 (1, 1, 1)])
def test_q_poincare_in_blocks_and_chunks_is_bit_identical(monkeypatch, key):
    """Radius 1 runs as one block of one histogram; with blocks of 2^13
    fold pairs and histograms of 2^10 entries it runs as several blocks,
    some of several chunks, and gives the same PoincareSum, bytes of the
    components and shell sup-norms included."""
    T = GramTriple(*key)
    blocks = []
    pair_counts = whittaker._pair_counts
    monkeypatch.setattr(whittaker, "_pair_counts",
                        lambda *args: blocks.append(1) or pair_counts(*args))
    chunks = _count_bincounts(monkeypatch)
    whole = q_poincare(T, 16, 1)
    assert len(blocks) == len(chunks) == 1
    blocks.clear()
    chunks.clear()
    monkeypatch.setattr(whittaker, "_FOLD_BLOCK", 1 << 13)
    monkeypatch.setattr(whittaker, "_DENSE_CAP", 1 << 10)
    split = q_poincare(T, 16, 1)
    assert len(blocks) >= 2 and len(chunks) > len(blocks)
    assert split == whole and split.fold_pairs == whole.fold_pairs
    for a, b in ((split.components, whole.components),
                 (split.shell_sup, whole.shell_sup)):
        assert np.array(a).tobytes() == np.array(b).tobytes()


def test_pair_counts_histograms_stay_within_the_cap(monkeypatch):
    """The all-pattern call of test_fold_pair_shell_counts_match_a_direct_
    count, 369 patterns at radius 2 (35 M entries in one table): every
    histogram is at most _DENSE_CAP entries, and together they cover
    every pattern once."""
    f = whittaker._fold_set(2, 2)
    pick = np.sort(np.random.default_rng(5).choice(len(f.folds), 40,
                                                   replace=False))
    sizes = _count_bincounts(monkeypatch)
    whittaker._pair_counts(f, f, 0, len(f.patterns), f.folds[pick],
                           f.fold_pattern[pick], 0, 2)
    assert len(sizes) > 1 and max(sizes) <= whittaker._DENSE_CAP
    assert sum(sizes) == len(f.patterns) ** 2 * (2 * 64 + 1) * 2


# --- the symmetric-power kernel ----------------------------------------------------

def _group_digits(monkeypatch, key, radius):
    """The key digits (x, y, z) of every group of q_poincare, one row per
    group, and the strides packing them, as q_poincare hands them to
    _orbit_terms (the same at every weight)."""
    seen = []
    orbit_terms = whittaker._orbit_terms

    def record(digits, strides, ell):
        seen.append((digits, strides))
        return orbit_terms(digits, strides, ell)

    monkeypatch.setattr(whittaker, "_orbit_terms", record)
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
    convolution: the rows of 2,0,1's 1,328 groups at radius 1, random rows
    at weights 16, 40 and 200, and 2,0,2's 684 groups at weight 400, whose
    powers overflow from v = -54.  Equal as arrays, NaNs included, and
    byte for byte, signs of zero included."""
    rng = np.random.default_rng(21)
    rows = {key: whittaker._prk_coeffs(_group_digits(monkeypatch, key, 1)[0])
            for key in ((2, 0, 1), (2, 0, 2))}
    assert (len(rows[2, 0, 1]), len(rows[2, 0, 2])) == (1328, 684)
    cases = [(rows[2, 0, 1], 16)]
    cases += [(_random_kernel_rows(rng, 300), ell) for ell in (16, 40, 200)]
    cases.append((rows[2, 0, 2], 400))
    for coeffs, ell in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            got = sym_power_batch(coeffs, ell)
            want = sym_power_by_convolution(coeffs, ell)
        assert got.shape == (len(coeffs), 2 * ell + 1)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()
    assert np.flatnonzero(~np.isfinite(got).all(axis=0))[0] - ell == -54


def test_sym_power_batch_zero_row_raises():
    coeffs = _random_kernel_rows(np.random.default_rng(4), 20)
    coeffs[7] = 0
    for kernel in (sym_power_batch, sym_power_by_convolution):
        with pytest.raises(ValueError, match="degenerate projection"):
            kernel(coeffs, 16)


def test_sym_power_batch_peak_memory():
    """Three working arrays, the spare two freed before the final copy:
    the traced peak stays within 3.25 times the result."""
    coeffs = _random_kernel_rows(np.random.default_rng(9), 8400)
    assert len(coeffs) >= 8192
    tracemalloc.start()
    try:
        terms = sym_power_batch(coeffs, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * terms.nbytes


@pytest.mark.parametrize("key, ells, groups, powers", [
    ((2, 0, 1), (16, 40, 200), 1328, 348),
    ((3, 1, 2), (16, 40, 200), 480, 164),
    ((2, 1, 2), (16, 40, 200), 818, 217),
    ((2, 0, 2), (400,), 684, 186),
    ((3, 0, 4), (16,), 0, 0)])
def test_orbit_terms_equal_the_kernel_on_every_group_bit_for_bit(
        monkeypatch, key, ells, groups, powers):
    """The terms q_poincare gathers from one power per orbit against
    sym_power_batch on every group's own row, byte for byte: signs of
    zero, infs and NaNs included.  At weight 400 on 2,0,2 the powers
    overflow and the kernel's output has NaNs and -0s; 3,0,4 has no pair
    at radius 1, so no group; 3,1,2 has b != 0, and not every key's
    negation is a key."""
    digits, strides = _group_digits(monkeypatch, key, 1)
    assert len(digits) == groups
    for ell in ells:
        with np.errstate(over="ignore", invalid="ignore"):
            got, built = whittaker._orbit_terms(digits, strides, ell)
            want = sym_power_batch(whittaker._prk_coeffs(digits), ell)
        assert built == powers
        assert got.shape == want.shape == (groups, 2 * ell + 1)
        assert got.tobytes() == want.tobytes()
        if ell == 400:
            assert np.isnan(want).any()
            assert (want.view(np.uint64) == np.uint64(1 << 63)).any()


def test_q_poincare_builds_one_power_per_orbit():
    """1,328 groups, 348 powers on 2,0,1 at radius 1; 684, 186 on 2,0,2.
    The count is work, which equality ignores."""
    for key, groups, powers in (((2, 0, 1), 1328, 348),
                                ((2, 0, 2), 684, 186)):
        res = q_poincare(GramTriple(*key), 16, 1)
        assert (res.groups, res.powers) == (groups, powers)
        assert res == whittaker.PoincareSum(res.components, res.shell_sup,
                                            res.pairs, res.groups)


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
    h = (plane_rotation(_P1, _P2, a, J4)
         @ plane_rotation(_N1, _N2, b, J4)
         @ plane_rotation(_P1, _N1, c, J4)
         @ plane_rotation(_P2, _N2, d, J4))
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
