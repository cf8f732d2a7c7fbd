"""Numeric kernels for the degenerate Whittaker expansion on SO(4,4).

Exact structure constants live in quadspace/triality; this module is the
floating-point layer, on numpy alone: rows K_0..K_n of K-Bessel functions
(K_0 and K_1 by a trapezoid rule, the rest by recurrence), the beta
functions attached to ordered pairs of vectors in the signature (2,2)
block, the vector-valued Whittaker values, the Fourier-Jacobi archimedean
integral with its closed form, the Poincare summand built from
the su(2)-projection of a bivector.  It also holds an exact positivity
test: an integer sign that picks which ordering of a pair the Whittaker
expansion sees.

Along the line of the archimedean integral, beta(-s) = -conj beta(s), so
the Whittaker value there satisfies f_v(-s) = (-1)^v conj f_v(s): the
integral over [-smax, smax] is i^(v mod 2) times the integral of one real
row over [0, smax], which is what the quadrature evaluates.

Coordinates in the (2,2) block follow the storage order (b3, b4, b-4, b-3),
so the pairing is the antidiagonal form (u, w) = sum_k u[k] w[3-k], matching
the middle slice of the eight-dimensional coordinates used in quadspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import (asinh, comb, exp, factorial, frexp, inf, isqrt, pi, prod,
                  sqrt)
from typing import List, Optional, Tuple

import numpy as np

from .coset import GramTriple, IndexPair, gram as coset_gram
from . import quadspace

# --- the signature (2,2) block ----------------------------------------------

J4 = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
              dtype=float)

Y0 = np.array([1.0, 0.0, 0.0, 1.0])   # b3 + b-3
Y1 = np.array([0.0, 1.0, 1.0, 0.0])   # b4 + b-4
V1 = Y0 / sqrt(2.0)
V2 = Y1 / sqrt(2.0)
_V12 = V1 + 1j * V2


def pairing22(u, w) -> complex:
    # u J4 is u reversed
    return complex(np.asarray(u)[::-1] @ np.asarray(w))


# --- K-Bessel ----------------------------------------------------------------

# Below this, sinh^2(t/2) overflows at the last nodes of _k01_scaled.
_BESSEL_X_MIN = 1e-300
# k/2 for the nodes k of _k01_scaled, one row each, down to _BESSEL_X_MIN
_HALF_K = 0.5 * np.arange(
    2.0 + int(10.0 * asinh(sqrt(20.0 / _BESSEL_X_MIN))))[:, None]


def _k01_scaled(x: np.ndarray, xmin: float
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Trapezoid sums for K_0(x) e^x and K_1(x) e^x on a 1-d array x of
    finite entries >= _BESSEL_X_MIN, xmin the smallest: ([s0, s1], h) with
    K_0(x) e^x = h s0 and K_1(x) e^x = h (2 s1 + s0).  By

        K_nu(x) e^x = int_0^oo exp(-x (cosh t - 1)) cosh(nu t) dt,

    cosh t - 1 = 2 sinh^2(t/2), and the rule converges geometrically on
    this integrand.  The step is h = min(0.2, 0.6/sqrt(x)) and the nodes
    t = k h stop where x (cosh t - 1) passes 40, at k = t_max / h with
    t_max = 2 asinh(sqrt(20/x)): below 15 when h = 0.6/sqrt(x) (x >= 9),
    10 asinh(sqrt(20/x)) when h = 0.2 (37 at x = 0.05, 114 at x = 1e-8).

    Every entry gets the nodes of xmin, with its terms past its own cut
    set to 0, so an entry's sums depend on that entry alone: exp and sinh
    run on contiguous (nodes, entries) arrays, as for a single entry, and
    the node sum is numpy's reduction over the leading axis of a (nodes,
    2 entries) array, which adds the rows in order for every column."""
    m = len(x)
    h = np.minimum(0.2, 0.6 / np.sqrt(x))
    nodes = 2 + int(max(15.0, 10.0 * asinh(sqrt(20.0 / xmin))))
    s2 = _HALF_K[:nodes] * h
    np.sinh(s2, out=s2)
    s2 *= s2                           # sinh^2(t/2), one row per node
    g = s2 * (-2.0 * x)                # -x (cosh t - 1)
    keep = g >= -40.0                  # the nodes before the entry's cut
    np.exp(g, out=g)
    terms = np.empty((nodes, 2 * m))   # the summands of s0, then of s1
    np.multiply(g, keep, out=terms[:, :m])
    terms[0, :m] = 0.5                 # the endpoint t = 0 has weight h/2
    np.multiply(terms[:, :m], s2, out=terms[:, m:])
    return np.add.reduce(terms, axis=0).reshape(2, m), h


def bessel_k_row(nmax: int, x) -> np.ndarray:
    """[K_0(x), ..., K_nmax(x)]: K_0 and K_1 from the trapezoid sums of
    _k01_scaled, then the upward recurrence K_{n+1} = K_{n-1} + (2n/x) K_n
    (stable in this direction).  For an array x, row n is K_n on every
    entry of x, and an entry's column is bit for bit the row of that
    entry alone.  x must be finite and at least _BESSEL_X_MIN (1e-300)."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    xmin = flat.min() if len(flat) else np.inf
    if not xmin >= _BESSEL_X_MIN:
        raise ValueError(f"bessel_k_row requires x >= {_BESSEL_X_MIN:g}")
    sums, h = _k01_scaled(flat, float(xmin))
    rows = np.empty((max(nmax, 1) + 1, len(flat)))
    row = list(rows)
    np.multiply(sums, h * np.exp(-flat), out=rows[:2])
    row[1] *= 2.0
    row[1] += row[0]
    for n in range(1, nmax):
        np.multiply(2.0 * n / flat, row[n], out=row[n + 1])
        np.add(row[n + 1], row[n - 1], out=row[n + 1])
    return rows[:nmax + 1].reshape((nmax + 1,) + x.shape)


# --- Levi points and beta ----------------------------------------------------

@dataclass(frozen=True)
class LeviPoint:
    """r = (m, h): m in GL_2(R) with det m > 0 acting on span(b1, b2),
    h in SO(2,2)^0 acting on the (b3, b4, b-4, b-3) block."""
    m: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "h", h)
        # written so that a NaN fails the test
        if m.shape != (2, 2) or not m[0, 0] * m[1, 1] > m[0, 1] * m[1, 0]:
            raise ValueError("m must be 2x2 with positive determinant")
        if not _preserves_form(h):
            raise ValueError("h must preserve the (2,2) form")

    @staticmethod
    def identity() -> "LeviPoint":
        return LeviPoint(np.eye(2), np.eye(4))


def _preserves_form(h: np.ndarray) -> bool:
    """Whether the float array h is 4x4, finite and preserves the (2,2)
    form to 1e-12."""
    # J4 h is h with its rows reversed
    return h.shape == (4, 4) and bool(
        np.isfinite(h).all() and np.max(np.abs(h.T @ h[::-1] - J4)) <= 1e-12)


def _h_inverse(h: np.ndarray) -> np.ndarray:
    # h^{-1} = J h^t J for the antidiagonal form: h^t with its rows and
    # columns reversed
    return h.T[::-1, ::-1]


def _beta_rows(T1, T2, m: np.ndarray, h: np.ndarray) -> np.ndarray:
    """beta_fn at the Levi points (m[k], h), one for each 2x2 matrix of the
    (..., 2, 2) stack m, which this does not validate."""
    hinv = _h_inverse(h)
    # the pairing is linear, so zeta_j = (h^{-1} T_j, v1 + i v2) serves
    # every m: r^{-1} acts on the dual pair (b_{-1}, b_{-2}) by m^t, so
    # the component along b_{-i} pairs to sum_j m[j][i] zeta_j.
    zeta = np.array([pairing22(hinv @ np.asarray(T, dtype=float), _V12)
                     for T in (T1, T2)])
    z = np.einsum("...ji,j->...i", m, zeta)
    return sqrt(2.0) * 1j * (z[..., 0] + 1j * z[..., 1])


def beta_fn(T1, T2, r: LeviPoint) -> complex:
    """beta_{[T1,T2]}(r): sqrt(2) i times the pairing of
    r^{-1}(b_{-1} x T1 + b_{-2} x T2) against
    b_1 x (v1 + i v2) + b_2 x i(v1 + i v2)."""
    return complex(_beta_rows(T1, T2, r.m, r.h))


@dataclass(frozen=True)
class WhittakerValue:
    """Coefficients of x^{l+v} y^{l-v} / ((l+v)! (l-v)!), v = -l..l.  When
    they come from a quadrature, err is its absolute error estimate (2-norm
    over the components), intervals counts the intervals it evaluated,
    GK_NODES integrand values each, and rounds the batched integrand calls
    it took part in; otherwise None, 0 and 0."""
    ell: int
    components: Tuple[complex, ...]
    err: Optional[float] = None
    intervals: int = 0
    rounds: int = 0

    def __post_init__(self):
        if len(self.components) != 2 * self.ell + 1:
            raise ValueError("need 2*ell + 1 components")

    def component(self, v: int) -> complex:
        if abs(v) > self.ell:
            raise ValueError("|v| must be at most ell")
        return self.components[v + self.ell]


def _whittaker_components(beta: np.ndarray, pref, ell: int) -> np.ndarray:
    """Rows pref (beta/|beta|)^v K_|v|(|beta|), v = -ell..ell, one row per
    entry of the complex array beta; pref is a scalar, or a column of one
    prefactor per row."""
    ab = np.abs(beta)
    v = np.arange(-ell, ell + 1)
    return pref * (beta / ab)[:, None] ** v * bessel_k_row(ell, ab)[abs(v)].T


def whittaker_eval(T1, T2, r: LeviPoint, ell: int) -> WhittakerValue:
    """det(m)^ell |det(m)| sum_v (beta/|beta|)^v K_v(|beta|) on the standard
    component basis."""
    beta = beta_fn(T1, T2, r)
    if abs(beta) < 1e-14:
        raise ValueError("degenerate: |beta| vanishes at this point")
    detm = float(np.linalg.det(r.m))
    comps = _whittaker_components(np.array([beta]), detm ** ell * abs(detm),
                                  ell)[0]
    return WhittakerValue(ell, tuple(comps.tolist()))


# --- the S_v sum and its combinatorial engine --------------------------------

@lru_cache(maxsize=128)
def _s_v_poly(v: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """S_v(X) / (pi e^{-X}) as Gaussian-integer coefficients (re, im) of
    X^{-m}, m < top = max(|v|, 1), over the denominator 2^top.

    With K_{n+1/2}(X) = sqrt(pi/(2X)) e^{-X} sum_j (n+j)!/(j! (n-j)!)
    (2X)^{-j}, the k-th term of S_v is pi e^{-X} times

        C(|v|, 2k) (i sgn v)^{|v|-2k} (2k)!/(2^{k+1} k!) X^{-k}
        sum_j (n+j)!/(j! (n-j)!) (2X)^{-j},    n = |v| - k - 1

    (n = 0 at v = 0)."""
    av = abs(v)
    sgn = 1 if v >= 0 else -1
    top = max(av, 1)            # 2^top clears every 2^{-(j+1)}
    re = [0] * top              # coefficients of X^{-m}, m = k + j < top
    im = [0] * top
    for k in range(av // 2 + 1):
        n = max(av - k - 1, 0)
        # C(|v|, 2k) (2k)! / (2^k k!), and (i sgn v)^{|v|-2k} as a unit
        c = comb(av, 2 * k) * factorial(2 * k) // (factorial(k) << k)
        ur, ui = ((1, 0), (0, sgn), (-1, 0), (0, -sgn))[(av - 2 * k) % 4]
        a = 1                   # (n+j)! / (j! (n-j)!)
        for j in range(n + 1):
            t = (c * a) << (top - j - 1)
            re[k + j] += ur * t
            im[k + j] += ui * t
            a = a * (n + j + 1) * (n - j) // (j + 1)
    return tuple(re), tuple(im)


def _s_v_horner(v: int, p: int, q: int) -> Tuple[int, int, int]:
    """S_v(X) / (pi e^{-X}) at X = p/q > 0 as integers (re, im, den), not
    in lowest terms: the polynomial of _s_v_poly by Horner's rule,

        sum_m coeff[m] (q/p)^m / 2^top
            = (sum_m coeff[m] q^m p^(M-m)) / (2^top p^M),   M = top - 1."""
    re, im = _s_v_poly(v)
    top = len(re)
    num_re, num_im, pw = re[-1], im[-1], 1
    for m in range(top - 2, -1, -1):
        pw *= p
        num_re = num_re * q + re[m] * pw
        num_im = num_im * q + im[m] * pw
    return num_re, num_im, pw << top


def s_v_sum(v: int, X: float) -> complex:
    """S_v(X): the finite half-integer K-Bessel sum; equals pi e^{-X} i^v / 2.

    The individual terms grow like (2/X)^{|v|} while the total stays O(1),
    so the sum is carried out exactly at the float's rational value of X
    (_s_v_horner), and only the common factor pi e^{-X} is a float.  Each
    part is one int / int, which rounds correctly, so it equals the float
    of the reduced fraction."""
    # written so that a NaN fails the test
    if not 0.0 < X < inf:
        raise ValueError(f"s_v_sum requires a finite X > 0, got X={X}")
    num_re, num_im, den = _s_v_horner(v, *X.as_integer_ratio())
    return pi * exp(-X) * complex(num_re / den, num_im / den)


# --- the Fourier-Jacobi archimedean integral ---------------------------------

def boost_u(theta: float) -> np.ndarray:
    """An element of SO(V_{1,2})(R)^0 fixing y0: the hyperbolic rotation by
    theta in the plane spanned by y1 and the negative vector b4 - b-4.  Its
    isotropic eigenvectors b4 and b-4 scale by e^theta and e^-theta, so it
    is diag(1, e^theta, e^-theta, 1)."""
    return np.diag([1.0, exp(theta), exp(-theta), 1.0])


# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK's qk15; Piessens, de Doncker-
# Kapenga, Ueberhuber, Kahaner 1983): the 15 Kronrod nodes and weights, and
# the 7-point Gauss weights on the odd-indexed nodes, which are the Gauss
# nodes.
_GK_X = np.array([0.991455371120812639206854697526329,
                  0.949107912342758524526189684047851,
                  0.864864423359769072789712788640926,
                  0.741531185599394439863864773280788,
                  0.586087235467691130294144845693013,
                  0.405845151377397166906606412076961,
                  0.207784955007898467600689403773245])
_GK_X = np.concatenate([_GK_X, [0.0], -_GK_X[::-1]])
_GK_W = np.array([0.022935322010529224963732008058970,
                  0.063092092629978553290700663189204,
                  0.104790010322250183839876322541518,
                  0.140653259715525918745189590510238,
                  0.169004726639267902826583426598550,
                  0.190350578064785409913256402421014,
                  0.204432940075298892414161999234649])
_GK_W = np.concatenate([_GK_W, [0.209482141084727828012999174891714],
                        _GK_W[::-1]])
_G7_W = np.zeros(15)
_G7_W[1::2] = [0.129484966168869693270611432679082,
               0.279705391489276667901467771423780,
               0.381830050505118944950369775488975,
               0.417959183673469387755102040816327,
               0.381830050505118944950369775488975,
               0.279705391489276667901467771423780,
               0.129484966168869693270611432679082]
GK_NODES = len(_GK_X)     # integrand values per interval
_GK_LIMIT = 1000          # intervals one integral may evaluate
_GK_EPSABS = 1e-14        # absolute tolerance of archimedean_integral_checks
_GK_EPSREL = 1e-9         # relative tolerance of archimedean_integral_checks


def _gauss_kronrod(f, breaks) -> List[Tuple[np.ndarray, float, int, int]]:
    """Adaptive Gauss-Kronrod 7/15 quadrature of m vector-valued integrals
    in lockstep, integral j over [a_j, b_j], the first and last of its
    increasing starting breakpoints breaks[j], which make at most
    _GK_LIMIT intervals: one (integral, error estimate, intervals
    evaluated, rounds taken) per integral.

    f(points, which) maps a 1-d array of points, and the index of the
    integral each point belongs to, to one row of values per point; a row
    must depend on its point and index alone.  Each round evaluates the 15
    nodes of every open interval of every integral in one call of f; the
    first round evaluates every interval between consecutive starting
    breakpoints, which count toward the cap.  An integral's open intervals
    stay contiguous, in the order it would keep alone (its starting
    intervals left to right, then left halves, then right halves), and
    every decision below is made on its own intervals, so its result is
    bit for bit the one it would get integrated alone.

    An interval's error estimate is ||K15 - G7||_2, raised to the rounding
    floor 50 eps ||K15 of |f| ||_2.  An integral's intervals are all
    accepted once their estimates sum to at most tol = max(_GK_EPSABS,
    _GK_EPSREL ||integral||); before that an interval is accepted when its
    estimate is within its share of tol by length in [a_j, b_j] or is the
    rounding floor, and the others are bisected.  The estimate returned is
    the sum over the accepted intervals.  Once another round would take an
    integral past _GK_LIMIT intervals, or one of its estimates is not
    finite, its open intervals are accepted unconverged, estimates
    included."""
    breaks = [np.asarray(br, dtype=float) for br in breaks]
    m = len(breaks)
    if not m:
        return []
    a = np.array([br[0] for br in breaks])
    b = np.array([br[-1] for br in breaks])
    lo = np.concatenate([br[:-1] for br in breaks])
    hi = np.concatenate([br[1:] for br in breaks])
    which = np.repeat(np.arange(m), [len(br) - 1 for br in breaks])
    total, err, evaluated, rounds = [0.0] * m, [0.0] * m, [0] * m, [0] * m
    while len(lo):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        fx = f((mid[:, None] + half[:, None] * _GK_X).ravel(),
               np.repeat(which, GK_NODES))
        fx = fx.reshape(len(lo), GK_NODES, -1)
        k15 = half[:, None] * np.einsum("k,ikc->ic", _GK_W, fx)
        g7 = half[:, None] * np.einsum("k,ikc->ic", _G7_W, fx)
        rounding = 50.0 * np.finfo(float).eps * np.linalg.norm(
            half[:, None] * np.einsum("k,ikc->ic", _GK_W, np.abs(fx)), axis=1)
        diff = np.linalg.norm(k15 - g7, axis=1)
        est = np.maximum(diff, rounding)
        done = np.empty(len(lo), dtype=bool)
        cuts = np.searchsorted(which, np.arange(m + 1)).tolist()
        for j in range(m):
            rows = slice(cuts[j], cuts[j + 1])
            if rows.start == rows.stop:
                continue
            evaluated[j] += rows.stop - rows.start
            rounds[j] += 1
            tol = max(_GK_EPSABS, _GK_EPSREL * np.linalg.norm(
                total[j] + k15[rows].sum(axis=0)))
            ok = done[rows]           # a view: setting ok sets done
            if err[j] + est[rows].sum() <= tol:
                ok[:] = True
            else:
                # at the rounding floor, halves have half the estimate and
                # half the share, so bisection cannot help
                ok[:] = ((est[rows] <= tol * (hi[rows] - lo[rows])
                          / (b[j] - a[j])) | (diff[rows] <= rounding[rows]))
                if (evaluated[j] + 2 * np.count_nonzero(~ok) > _GK_LIMIT
                        or not np.isfinite(est[rows]).all()):
                    ok[:] = True
            total[j] = total[j] + k15[rows][ok].sum(axis=0)
            err[j] += float(est[rows][ok].sum())
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        which = np.tile(which[~done], 2)
        order = np.argsort(which, kind="stable")
        which = which[order]
        lo = np.concatenate([lo, mid])[order]
        hi = np.concatenate([mid, hi])[order]
    return list(zip(total, err, evaluated, rounds))


def _dyadic_mesh(t: float, smax: float) -> np.ndarray:
    """The starting breakpoints of the archimedean integral at t over
    [0, smax]: 0, smax/2^K, smax/2^(K-1), ..., smax/2, smax with
    K = floor(log2(2 t smax)), clamped so that its K + 1 intervals are at
    most _GK_LIMIT.  Bisection from [0, smax] builds exactly these
    intervals on its way down to s = 0, each right half accepted at once
    where the integrand has decayed, so starting from them saves its first
    K rounds.  The narrowest, [0, smax/2^K], is one to two decay lengths
    1/(2t) wide, since |beta(s)| >= 2t|s| and K_v decays like
    e^(-|beta|)."""
    k = min(frexp(2.0 * t * smax)[1] - 1, _GK_LIMIT - 1)
    return np.append(0.0, np.ldexp(smax, np.arange(-k, 1)))


def line_shift(T, t: float, u) -> float:
    """2 - w = 2 - t (T, u . y1): the imaginary part of beta along the line
    r(s) of archimedean_integral_checks, and the exponent of its closed
    form."""
    return 2.0 - t * pairing22(T, np.asarray(u, dtype=float) @ Y1).real


def _folded_rows(x: np.ndarray, c, pref, ell: int) -> np.ndarray:
    """Rows g_v, v = -ell..ell, one per entry of the real array x: with
    beta = x + i c, theta = arg beta and f_v = pref (beta/|beta|)^v
    K_|v|(|beta|) (the Whittaker value of _whittaker_components),

        g_v = 2 pref K_|v|(|beta|) cos(v theta)   (v even)
        g_v = 2 pref K_|v|(|beta|) sin(v theta)   (v odd),

    that is (f_v + (-1)^v conj f_v) / i^(v mod 2).  On a line where
    beta(-s) = -conj beta(s), f_v(-s) = (-1)^v conj f_v(s), so g_v is
    (f_v(s) + f_v(-s)) / i^(v mod 2), real.  c and pref are positive
    scalars, or arrays of one value per entry of x."""
    v = np.arange(-ell, ell + 1)
    trig = np.arctan2(c, x)[:, None] * v
    even = ell % 2                      # the first column whose v is even
    np.cos(trig[:, even::2], out=trig[:, even::2])
    np.sin(trig[:, 1 - even::2], out=trig[:, 1 - even::2])
    return (2.0 * np.asarray(pref)[..., None] * trig
            * bessel_k_row(ell, np.hypot(x, c))[abs(v)].T)


def _unfold(folded: np.ndarray, ell: int) -> np.ndarray:
    """The complex components i^(v mod 2) g_v, v = -ell..ell, of a real row
    of _folded_rows integrals: g_v + 0i for v even and 0 + g_v i for v odd,
    each zero part an exact +0."""
    out = np.zeros(2 * ell + 1, dtype=complex)
    even = ell % 2
    out.real[even::2] = folded[even::2]
    out.imag[1 - even::2] = folded[1 - even::2]
    return out


def archimedean_integral_checks(T, points, ell: int
                                ) -> List[Tuple[WhittakerValue,
                                                WhittakerValue]]:
    """For each (t, u) of points: the numeric integral over s of the
    Whittaker value along r(s) = (m(s), u) with m(s) = [[1, s t], [0, t]],
    for the ordered pair [y0, T] with T in the orthogonal complement of
    y0; versus the closed form (pi t^ell e^{-(2-w)} / 2) i^v with
    w = t (T, u . y1) (line_shift gives 2 - w).

    beta along the line has the closed form beta(s) = -2 s t + i (2 - w),
    so the integrand never degenerates, det m(s) = t, and beta(-s) =
    -conj beta(s).  So the integral of component v over [-smax, smax] is
    i^(v mod 2) times that of the real row g_v of _folded_rows over
    [0, smax]: each point integrates one real (2 ell + 1)-row over
    [0, smax], half the line, and its components are built by _unfold.
    The integrals run in lockstep through _gauss_kronrod, each from its
    own dyadic mesh (_dyadic_mesh) and with its own error control, and
    each numeric value carries its error estimate, interval count and
    round count.  The closed form of beta is checked against one pairing
    computation per point, at s = 0 and at four Gauss-Kronrod nodes of
    [0, smax]; a mismatch raises ArithmeticError.

    T must be finite, orthogonal to y0 and span a positive line; t must
    be positive and finite, u finite and preserving the (2,2) form, and
    2 - w positive.  Each is tested so that a NaN fails it, and a failure
    raises ValueError."""
    T = np.asarray(T, dtype=float)
    if not (np.isfinite(T).all() and abs(pairing22(T, Y0)) <= 1e-12):
        raise ValueError("T must be finite and orthogonal to y0")
    if not pairing22(T, T).real > 0:
        raise ValueError("T must span a positive line")
    ts, shifts, meshes, closed = [], [], [], []
    for t, u in points:
        u = np.asarray(u, dtype=float)
        if not 0.0 < t < inf:
            raise ValueError(f"t must be positive and finite, got t={t}")
        if not _preserves_form(u):
            raise ValueError(f"u at t={t} must preserve the (2,2) form")
        c = line_shift(T, t, u)
        if not c > 0:
            raise ValueError(f"precondition violated at t={t}: "
                             f"2 - t (T, u . y1) = {c} <= 0")
        # truncation: |beta| >= 2t|s|, so K_v decays like e^{-2t|s|}
        smax = (60.0 + 2.0 * ell * np.log(1.0 + ell)) / (2.0 * t) + 5.0
        s = np.append(0.0, smax / 2.0 * (1.0 + _GK_X[::4]))
        m = np.zeros((len(s), 2, 2))
        m[:, 0, 0], m[:, 0, 1], m[:, 1, 1] = 1.0, s * t, t
        beta = -2.0 * t * s + 1j * c
        ok = (np.abs(_beta_rows(Y0, T, m, u) - beta)
              < 1e-9 * (1.0 + np.abs(beta)))
        if not ok.all():
            raise ArithmeticError(f"beta along the line at t={t}, "
                                  f"s={float(s[np.argmin(ok)])} is not "
                                  f"-2 s t + i (2 - w)")
        ts.append(t)
        shifts.append(c)
        meshes.append(_dyadic_mesh(t, smax))
        scale = pi * t ** ell * exp(-c) / 2.0
        closed.append(WhittakerValue(
            ell, tuple(scale * 1j ** v for v in range(-ell, ell + 1))))
    # each integral's coefficients as Python floats, as it computes them
    # alone (numpy's ts ** ell can differ in the last bit)
    slope = np.array([-2.0 * t for t in ts])
    shift = np.array(shifts)
    pref = np.array([t ** ell * t for t in ts])

    def integrand(s, which):
        return _folded_rows(slope[which] * s, shift[which], pref[which],
                            ell)

    return [(WhittakerValue(ell, tuple(_unfold(res, ell).tolist()), err,
                            intervals, rounds), want)
            for (res, err, intervals, rounds), want in zip(
                _gauss_kronrod(integrand, meshes), closed)]


def archimedean_integral_check(T, t: float, u, ell: int
                               ) -> Tuple[WhittakerValue, WhittakerValue]:
    """archimedean_integral_checks at the single point (t, u)."""
    return archimedean_integral_checks(T, [(t, u)], ell)[0]


# --- Poincare summand --------------------------------------------------------

def _su2_basis():
    """P, Q, R: the real integral basis of the compact su(2).  With
    U1 = b1 + b-1, U2 = b2 + b-2, V1 = b3 + b-3 and V2 = b4 + b-4,

        P = U1 ^ V1 - U2 ^ V2,  Q = U1 ^ V2 + U2 ^ V1,  R = U1 ^ U2 + V1 ^ V2,

    and its standard triple is e+ = (P - iQ)/4, h+ = iR/2 and
    f+ = -(P + iQ)/4."""
    u1, u2 = (1, 0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 1, 0)
    v1, v2 = (0, 0, 1, 0, 0, 1, 0, 0), (0, 0, 0, 1, 1, 0, 0, 0)
    w = quadspace.wedge
    return (w(u1, v1) - w(u2, v2), w(u1, v2) + w(u2, v1),
            w(u1, u2) + w(v1, v2))


def _prk_int_matrices() -> np.ndarray:
    """Re(2 C_e), Im(2 C_e) and Im(2 C_h) as int64 8x8 matrices M, giving
    the key integers x, y, z = w1^t M w2, where for b_k = e+, h+, f+

        2 tr(act(w1 ^ w2) b_k) = w1^t (2 C_k) w2,  C_k = J b_k - (J b_k)^t

    (J, the pairing, reverses the rows).  With C_X likewise for P, Q, R of
    _su2_basis, they are C_P / 2, -C_Q / 2 and C_R; as h+ = iR/2 and
    f+ = -(P + iQ)/4, 2 C_h is imaginary and 2 C_f = -conj(2 C_e), which
    the closed form of _prk_coeffs uses.  Built exactly, checking what that
    closed form rests on: the trace form's Gram matrix on P, Q, R is
    -16 I, and C_P and C_Q are even; and what q_poincare's fold split
    rests on: row i of each M equals row 7 - i, and column j equals
    column 7 - j."""
    su2 = _su2_basis()
    if [[quadspace.trace_form(a, b) for b in su2] for a in su2] != [
            [-16, 0, 0], [0, -16, 0], [0, 0, -16]]:
        raise ArithmeticError("the trace form on span{P, Q, R} changed")
    parts = []
    for b, d in zip(su2, (2, -2, 1)):
        c = b.num[::-1] - b.num[::-1].T
        if (c % (d * b.den)).any():
            raise ArithmeticError("a key matrix is not integral")
        parts.append(c // (d * b.den))
    mats = np.stack(parts)
    if (mats != mats[:, ::-1]).any() or (mats != mats[:, :, ::-1]).any():
        raise ArithmeticError("the key matrices do not factor through the "
                              "fold v_i + v_(7-i)")
    return mats


_PRK2 = _prk_int_matrices()


def _prk_coeffs(xyz: np.ndarray) -> np.ndarray:
    """(c_xx, c_xy, c_yy) rows of pr_K from rows of key integers (x, y, z):
    the doubled traces (x + iy, iz, -x + iy) on (e+, h+, f+), solved
    against the Gram matrix [[0, 0, 2], [0, 4, 0], [2, 0, 0]], with
    e+ = -x^2, h+ = 2xy, f+ = y^2."""
    x, y, z = np.asarray(xyz, dtype=float).T
    return np.stack([x - 1j * y, 1j * z, x + 1j * y], axis=1) / 4.0


def _sym_powers(coeffs: np.ndarray, ell: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Rows (c_xx x^2 + c_xy xy + c_yy y^2)^ell for rows (c_xx, c_xy,
    c_yy) of coeffs, as coefficients of x^{l+v} y^{l-v}, v ascending, in a
    C-contiguous (rows, 2 ell + 1) array, and each row's ||.||^(2 ell + 1),
    the divisor that makes a row the Poincare summand; a degenerate (zero)
    projection raises.

    The powers are built coefficient-major, one row of the working arrays
    per coefficient and one column per input row, so every shifted slice
    is contiguous.  Each of the ell - 1 passes multiplies the current
    power p by the quadratic into the spare of two (2 ell + 1, rows)
    buffers, through one (2 ell - 1, rows) scratch buffer that holds each
    product in turn.  The three arrays are allocated once, and no view of
    the spare or the scratch outlives the loop, so both are freed before
    the final transposing copy and the peak stays about three times the
    result.  Coefficient k of a pass is ((0 + c_yy p_k) + c_xy p_(k-1)) +
    c_xx p_(k-2): the operations, in their order, of a convolution into a
    zeroed array (the 0 + turns a product's -0 into +0, as there), so the
    powers, divided, equal tests/oracles.py's sym_power_by_convolution bit
    for bit, and from ell = 2 on no power has a -0."""
    c_xx, c_xy, c_yy = (np.ascontiguousarray(coeffs[:, k]) for k in range(3))
    nrm = np.sqrt(np.abs(c_xx) ** 2 + np.abs(c_xy) ** 2 / 2.0
                  + np.abs(c_yy) ** 2)
    if np.any(nrm < 1e-12):
        raise ValueError("degenerate projection")
    poly = np.empty((2 * ell + 1, len(nrm)), dtype=complex)
    poly[0], poly[1], poly[2] = c_yy, c_xy, c_xx
    spare, scratch = np.empty_like(poly), np.empty_like(poly[2:])
    for n in range(3, 2 * ell + 1, 2):
        # poly[:n] holds the current power, spare[:n + 2] gets the next
        np.multiply(poly[:n], c_yy, out=scratch[:n])
        np.add(scratch[:n], 0.0, out=spare[:n])
        spare[n:n + 2] = 0
        np.multiply(poly[:n], c_xy, out=scratch[:n])
        spare[1:n + 1] += scratch[:n]
        np.multiply(poly[:n], c_xx, out=scratch[:n])
        spare[2:n + 2] += scratch[:n]
        poly, spare = spare, poly
    del spare, scratch
    return poly.T.copy(), nrm ** (2 * ell + 1)


# The images of key digits (x, y, z) under negation and the flip
# (x, -y, -z), the flipped two last.
_ORBIT_SIGNS = np.array([[1, 1, 1], [-1, -1, -1], [1, -1, -1], [-1, 1, 1]],
                        dtype=np.int64)


def _orbit_terms(digits: np.ndarray, strides: np.ndarray, ell: int
                 ) -> Tuple[np.ndarray, int]:
    """The Poincare summands of rows of key digits (x, y, z) at an even
    ell, that is the _sym_powers of _prk_coeffs(digits) divided by their
    norm powers, bit for bit, with one power built per orbit of the rows
    under negation and the flip (x, -y, -z); also the number of powers
    built.

    The coefficients are ((x - iy)/4, iz/4, (x + iy)/4), so negation
    negates them and the flip conjugates them, and each row's norm power
    is its orbit's.  The kernel's complex products and sums round the
    same whatever the signs of their operands, an overflow's inf - inf or
    inf * 0 gives the same NaN, and no power has a -0.  So the power of
    -c is that of c (ell even), and the power of conj c is that of c with
    each imaginary part m replaced by 0 - m: negated, but a +0 or a NaN
    kept.  The division comes after the conjugation: it can round a
    nonzero part to a signed zero (by an overflowed norm power, as on
    2,0,2 at weight 400), whose sign a conjugation after it would get
    wrong.

    Each row is mapped to the image whose code (its digits dotted with
    strides) is smallest, the unflipped one on a tie; the distinct codes
    are found by one sort, and their powers built, gathered back,
    conjugated on the flipped rows and divided."""
    images = digits[:, None, :] * _ORBIT_SIGNS
    codes = images @ strides
    pick = np.argmin(codes, axis=1)
    code = codes[np.arange(len(codes)), pick]
    order = np.argsort(code)
    # the distinct codes, where the sorted codes step (np.unique would
    # import numpy.ma)
    first = order[np.diff(code[order], prepend=code[:1] - 1) != 0]
    rep = code[first]
    powers, scale = _sym_powers(_prk_coeffs(images[first, pick[first]]),
                                ell)
    at = np.searchsorted(rep, code)
    terms = powers[at]
    np.subtract(0.0, terms.imag, out=terms.imag, where=(pick >= 2)[:, None])
    terms /= scale[at, None]
    return terms, len(rep)


def _key_bases(radius: int) -> List[int]:
    """Mixed-radix bases 2 M_j + 1 packing the three key integers
    w1^t M_j w2 (M_j the matrices of _PRK2) for sup-norms <= radius, with
    M_j = radius^2 sum |entries of M_j| bounding |w1^t M_j w2|."""
    return [2 * radius ** 2 * int(np.abs(m).sum()) + 1 for m in _PRK2]


@dataclass(frozen=True)
class PoincareSum:
    """A partial Poincare sum: its 2 ell + 1 components (v ascending);
    shell_sup[s - 1], the sup-norm of the contribution of shell s (the
    pairs whose larger sup-norm is s), the last one being the convergence
    indicator; the number of lattice pairs summed and of the distinct
    su(2) projections (groups) they fall into; and the work, which
    equality ignores: fold_pairs (0 when the sum was not made on folds)
    and powers, the symmetric powers built (0 when not counted)."""
    components: Tuple[complex, ...]
    shell_sup: Tuple[float, ...]
    pairs: int
    groups: int
    fold_pairs: int = field(default=0, compare=False)
    powers: int = field(default=0, compare=False)


# Every sign vector in {+1, -1}^4, one per row.
_SIGNS = 1 - 2 * (np.arange(16)[:, None] >> np.arange(4) & 1)

# Fold pairs per block of q_poincare; each block holds a few int64 and
# float64 arrays of this length.
_FOLD_BLOCK = 1 << 19

# Entries of one dense t-pair histogram of _pair_counts (float64, 2 MB).
_DENSE_CAP = 1 << 18


@dataclass(frozen=True)
class _FoldSet:
    """The vectors v with a given q(v) and sup-norm <= radius, folded into
    s = (v0 + v7, v1 + v6, v2 + v5, v3 + v4) and t = (v0 - v7, ..., v3 - v4):
    patterns, the distinct |s| (coordinatewise), ascending; t, sup and
    t_pattern, one row per (|s|, t), sorted by pattern, with sup the
    vector's sup-norm; folds, every s whose |s| is a pattern, and
    fold_pattern, their patterns, ascending.  The vectors are the pairs
    (s, t) of a fold and a t row of its pattern."""
    patterns: np.ndarray
    t: np.ndarray
    sup: np.ndarray
    t_pattern: np.ndarray
    folds: np.ndarray
    fold_pattern: np.ndarray


def _fold_set(radius: int, q: int) -> _FoldSet:
    """_FoldSet for q(v) = q.  One coordinate pair (v_i, v_(7-i)) with
    sup-norm <= radius is one (|s_i|, t_i) with t_i = |s_i| mod 2 and
    |s_i| + |t_i| <= 2 radius; q(v) = (|s|^2 - |t|^2)/4 and the sup-norm
    is max_i (|s_i| + |t_i|)/2.  The rows are joined from two halves of
    two coordinates each on |s|^2 - |t|^2 = 4 q, and their patterns |s|
    found by one sort of their packed codes, which order as the rows."""
    n = 2 * radius
    pair = np.array([(p, t) for p in range(n + 1)
                     for t in range(p - n, n - p + 1, 2)], dtype=np.int64)
    # rows (|s_0|, t_0, |s_1|, t_1); the same rows serve coordinates 2, 3
    half = np.concatenate([np.repeat(pair, len(pair), axis=0),
                           np.tile(pair, (len(pair), 1))], axis=1)
    w = (half[:, 0::2] ** 2 - half[:, 1::2] ** 2).sum(axis=1)
    # row i joins the cnt[i] rows order[lo[i]:lo[i] + cnt[i]], whose w is
    # 4 q - w[i]
    order = np.argsort(w, kind="stable")
    lo = np.searchsorted(w[order], 4 * q - w, side="left")
    cnt = np.searchsorted(w[order], 4 * q - w, side="right") - lo
    second = order[np.arange(cnt.sum())
                   + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)]
    rows = np.concatenate([np.repeat(half, cnt, axis=0), half[second]],
                          axis=1)
    # |s| in mixed radix n + 1: the codes order as the rows
    packed, t_pattern = np.unique(
        ((rows[:, 0] * (n + 1) + rows[:, 2]) * (n + 1) + rows[:, 4])
        * (n + 1) + rows[:, 6], return_inverse=True)
    patterns = np.stack(np.unravel_index(packed, (n + 1,) * 4), axis=1)
    order = np.argsort(t_pattern, kind="stable")
    rows, t_pattern = rows[order], t_pattern[order]
    # a sign change on a zero coordinate gives the same fold again
    signed = patterns[:, None, :] * _SIGNS
    new = ~((_SIGNS < 0) & (patterns[:, None, :] == 0)).any(axis=2)
    return _FoldSet(patterns, rows[:, 1::2],
                    (rows[:, 0::2] + np.abs(rows[:, 1::2])).max(axis=1) // 2,
                    t_pattern, signed[new], np.nonzero(new)[0])


def _group(codes: np.ndarray, rows: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct codes, ascending, and the sum of the rows over each."""
    if not len(codes):
        return codes, rows
    order = np.argsort(codes)
    codes = codes[order]
    first = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    return codes[first], np.add.reduceat(rows[order], first)


def _pair_counts(A: _FoldSet, C: _FoldSet, lo: int, hi: int,
                 s1: np.ndarray, s1_pattern: np.ndarray, b: int,
                 radius: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs (v1, v2) with pairing b over the fold pairs (s1, s2): s1
    a row of s1, of pattern s1_pattern in lo..hi-1 of A (ascending), and
    s2 a fold of C.  Returns the mask of the fold pairs with at least one
    pair, and their pairs per shell, one row each in the mask's row-major
    order.

    Since the pairing is (s1.s2 - t1.t2)/2, the counts are
    H[|s1|, |s2|, s1.s2 - 2b, shell], where H counts the pairs of t rows
    of A and of C by pattern, pattern, t1.t2 and shell; a t-set is closed
    under sign changes, so t1 runs over t1 >= 0 with multiplicity
    2^(nonzeros).  H is a dense table, built for a chunk of A's patterns
    c_lo.. at a time by one np.bincount over the t pairs' codes
    ((|t1| - c_lo) n_c + |t2|) n_d + t1.t2 + d_off, times radius, plus the
    shell (|t| the pattern index); each fold pair reads the row at its
    code ((|s1| - c_lo) n_c + |s2|) n_d + s1.s2 - 2b + d_off.  A chunk
    holds at most _DENSE_CAP entries, or one pattern's if that is more.
    The entries are sums of float64 weights 2^(nonzeros), integers below
    16 times the chunk's t pairs, so exact."""
    # |t1.t2| and |s1.s2 - 2b| are at most d_off: |s_i|, |t_i| <= 2 radius
    d_off = 16 * radius ** 2 + 2 * abs(b)
    n_d, n_c = 2 * d_off + 1, len(C.patterns)
    step = max(1, _DENSE_CAP // (n_c * n_d * radius))
    cuts = np.append(np.arange(lo, hi, step), hi)
    t_cuts = np.searchsorted(A.t_pattern, cuts)
    s_cuts = np.searchsorted(s1_pattern, cuts)
    # the codes' terms of C's side, added in place
    t2_code, t2_shell = C.t_pattern * n_d, C.sup - 1
    s2_code = C.fold_pattern * n_d
    hits, counts = [], []
    for k, c_lo in enumerate(cuts[:-1]):
        r = slice(t_cuts[k], t_cuts[k + 1])
        nonneg = (A.t[r] >= 0).all(axis=1)
        t1 = A.t[r][nonneg]
        code = quadspace.exact_matmul(t1, C.t.T, 16 * radius ** 2).astype(
            np.int64)
        code += ((A.t_pattern[r][nonneg] - c_lo) * n_c * n_d + d_off)[:, None]
        code += t2_code
        code *= radius
        code += np.maximum(A.sup[r][nonneg, None] - 1, t2_shell)
        H = np.bincount(code.ravel(), np.repeat(
            2.0 ** np.count_nonzero(t1, axis=1), len(C.t)),
            minlength=(cuts[k + 1] - c_lo) * n_c * n_d * radius)
        f = slice(s_cuts[k], s_cuts[k + 1])
        code = quadspace.exact_matmul(s1[f], C.folds.T,
                                      16 * radius ** 2).astype(np.int64)
        code += ((s1_pattern[f] - c_lo) * n_c * n_d + d_off - 2 * b)[:, None]
        code += s2_code
        rows = H.reshape(-1, radius)[code]
        hit = rows.any(axis=2)
        hits.append(hit)
        counts.append(rows[hit].astype(np.int64))
    return np.concatenate(hits), np.concatenate(counts)


def q_poincare(T: GramTriple, ell: int, radius: int) -> PoincareSum:
    """Sum of pr_K(v1 ^ v2)^ell / ||pr_K(v1 ^ v2)||^(2 ell + 1) (as
    coefficients of x^{l+v} y^{l-v}, v ascending) over the integral pairs
    with S(v1, v2) = T and sup-norms <= radius, shell by shell.

    The summand depends on the pair only through pr_K(v1 ^ v2), which is
    fixed, in closed form (_prk_coeffs), by three integers x, y, z
    bilinear in the pair (_prk_int_matrices).  So the pairs are grouped by
    these three integers, computed exactly in int64 and packed in mixed
    radix into one int64 key (_key_bases), and each group's summand is
    weighted by its pair counts.  Negating the three integers negates
    the coefficients, and the flip (x, -y, -z) conjugates them; each
    integer ranges over -m..m for its base 2 m + 1, so every such image of
    a key packs in range.  ell is even, so -c has the power of c, and
    conj c the conjugate power, both bit for bit in the kernel's rounding:
    the symmetric power is built once per orbit of the groups under the
    two, gathered back and conjugated where the flip is used
    (_orbit_terms).  powers is the number built, about a quarter of the
    groups.

    The pairs are counted on the fold split: with s = (v0 + v7, ...,
    v3 + v4) and t = (v0 - v7, ..., v3 - v4) (_FoldSet), each key matrix
    has row i equal to row 7 - i and column j equal to column 7 - j, so
    x, y, z are s1^t M' s2 with M' its top-left 4x4 block, and the pairs
    over a fold pair (s1, s2), by shell, are counted from the patterns
    |s1|, |s2| and s1.s2 alone (_pair_counts).  The folds of v1 run in
    blocks of whole patterns, and each block's keys and pair counts are
    grouped into one running table of the keys so far, so memory grows
    with folds and groups, not with pairs or blocks.  The key contraction
    runs in float64 (quadspace.exact_matmul) under a bound on its terms.
    (s1, s2) and (-s1, -s2) have the same key and counts, so s1 runs over
    the folds whose first nonzero entry is positive and the counts are
    doubled; fold_pairs is the number of fold pairs visited.

    A degenerate projection raises: every pair lies in exactly one group,
    so checking the groups checks the pairs."""
    if ell < 16 or ell % 2:
        raise ValueError("ell must be an even integer >= 16")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not T.is_positive_definite():
        raise ValueError("T must be positive definite")
    # q(v) <= 4 radius^2 on the box, so a smaller radius reaches no pair
    reach = isqrt((max(T.a, T.c) + 3) // 4 - 1) + 1
    if radius < reach:
        raise ValueError(f"radius {radius} reaches no vector with q(v) = "
                         f"{max(T.a, T.c)} (q(v) <= 4 radius^2); the "
                         f"smallest radius that can is {reach}")
    bases = _key_bases(radius)
    strides = [prod(bases[:j]) for j in range(len(bases))]
    # key - offsets . strides = s1^t key_matrix s2, in Python integers.
    # |s_i| <= 2 radius, so no key term sum exceeds key_bound; from radius
    # 81 it reaches 2^53, which is refused here, before any int64 array or
    # other work.  Below that, every packed key is below prod(bases) < 2^63.
    key_matrix = sum(k * m[:4, :4].astype(object)
                     for k, m in zip(strides, _PRK2))
    key_bound = 4 * radius ** 2 * int(np.abs(key_matrix).sum())
    quadspace.fits_float(key_bound)
    key_matrix = key_matrix.astype(np.int64)
    offsets = np.array([(b - 1) // 2 for b in bases], dtype=np.int64)
    strides = np.array(strides, dtype=np.int64)
    A = _fold_set(radius, T.a)
    C = A if T.c == T.a else _fold_set(radius, T.c)
    lead = A.folds[np.arange(len(A.folds)), np.argmax(A.folds != 0, axis=1)]
    s1, s1_pattern = A.folds[lead > 0], A.fold_pattern[lead > 0]
    s1_end = np.searchsorted(s1_pattern, np.arange(len(A.patterns) + 1))
    # blocks of whole patterns, each of about _FOLD_BLOCK fold pairs
    step = max(1, _FOLD_BLOCK // max(1, len(C.folds)))
    starts = np.append(np.searchsorted(s1_end, np.arange(0, len(s1), step)),
                       len(A.patterns))
    # starts is sorted, so its distinct entries, the block bounds, are
    # where it steps (np.unique would import numpy.ma, which nothing here
    # uses)
    cuts = starts[np.diff(starts, prepend=-1) != 0]
    keys = np.zeros(0, dtype=np.int64)
    counts = np.zeros((0, radius), dtype=np.int64)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        f = slice(s1_end[lo], s1_end[hi])
        hit, n = _pair_counts(A, C, lo, hi, s1[f], s1_pattern[f], T.b,
                              radius)
        block_keys = quadspace.exact_matmul(s1[f] @ key_matrix, C.folds.T,
                                            key_bound)[hit].astype(np.int64)
        # one running table: memory grows with groups, not with blocks
        keys, counts = _group(np.concatenate([keys, block_keys]),
                              np.concatenate([counts, n]))
    keys += offsets @ strides
    counts *= 2
    digits = keys[:, None] // strides % np.array(bases) - offsets
    terms, powers = _orbit_terms(digits, strides, ell)
    return PoincareSum(tuple(counts.sum(axis=1) @ terms),
                       tuple(float(np.max(np.abs(s)))
                             for s in counts.T @ terms),
                       int(counts.sum()), len(keys),
                       len(s1) * len(C.folds), powers)


# --- positivity oracle -------------------------------------------------------

def positivity_oracle(lam: IndexPair) -> str:
    """Which of the orderings [T1,T2], [T2,T1] keeps beta bounded away from
    zero on the connected Levi {det m = 1} x SO(2,2)^0: 'positive' (the
    given order), 'swapped', or 'degenerate' (gram not positive definite).
    The answer is the sign of the integer

        s = tr T1 (T2[0][1] - T2[1][0]) - (T1[0][1] - T1[1][0]) tr T2,

    the orientation of the pair's projection onto span(y0, y1): 'positive'
    for s < 0, 'swapped' for s > 0.

    Proof.  Identify T = [[m11, m12], [m21, m22]] with the vector
    m11 b3 - m21 b4 + m12 b-4 + m22 b-3 of the (2,2) block, on which the
    quadratic form is det T, and put zeta(T) = (T, v1 + i v2).  Then
    (T, y0) = tr T and (T, y1) = T[0][1] - T[1][0], so at r = 1
    Im(conj(zeta(T1)) zeta(T2)) = s / 2.  For the pair (x1, x2) that
    beta_fn forms from r, beta = sqrt2 i (zeta(x1) + i zeta(x2)), so

        |beta|^2 = 2 |zeta1|^2 + 2 |zeta2|^2 - 4 Im(conj(zeta1) zeta2).

    Im(conj(zeta1) zeta2) is the oriented area of the projection of
    (x1, x2) onto the positive plane span(v1, v2).  A positive definite
    gram makes span(T1, T2) a positive plane, which meets the negative
    complement of span(v1, v2) only in 0, so the area never vanishes; h
    runs over the connected SO(2,2)^0 and m scales the area by det m > 0,
    so its sign is that of s at every r.
    - s < 0: the cross term is >= 0, and |zeta(x)|^2 >= (x, x) for every x
      (drop the negative part), so |beta|^2 >= 2 (x1, x1) + 2 (x2, x2)
      = 4 tr(m^t G m) >= 8 sqrt(det G) = 4 sqrt(disc) by AM-GM on the
      eigenvalues, with G = [[a, b/2], [b/2, c]] the gram and det m = 1.
    - s > 0: SO(2,2)^0 is transitive on positive planes (Witt; the
      stabiliser O(2) x O(2) meets every component of O(2,2)), so some h
      carries span(T1, T2) onto span(y0, y1), keeping the sign of s, and
      an m with det m = 1 then gives a positive multiple of (y0, y1),
      where beta = 0.
    Swapping the pair negates s, so exactly one ordering is positive."""
    if not coset_gram(lam).is_positive_definite():
        return "degenerate"
    T1, T2 = lam
    s = ((T1[0][0] + T1[1][1]) * (T2[0][1] - T2[1][0])
         - (T1[0][1] - T1[1][0]) * (T2[0][0] + T2[1][1]))
    return "positive" if s < 0 else "swapped"
