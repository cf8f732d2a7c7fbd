"""Numeric kernels for the degenerate Whittaker expansion on SO(4,4).

Exact structure constants live in quadspace/triality; this module is the
floating-point layer: rows K_0..K_n of K-Bessel functions, the beta
functions attached to ordered pairs of vectors in the signature (2,2)
block, the vector-valued Whittaker values, the Fourier-Jacobi archimedean
integral with its closed form, the Poincare summand built from
the su(2)-projection of a bivector.  It also holds an exact positivity
test: an integer sign that picks which ordering of a pair the Whittaker
expansion sees.

Coordinates in the (2,2) block follow the storage order (b3, b4, b-4, b-3),
so the pairing is the antidiagonal form (u, w) = sum_k u[k] w[3-k], matching
the middle slice of the eight-dimensional coordinates used in quadspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, factorial, isqrt, pi, prod, sqrt
from typing import List, Optional, Tuple

import numpy as np
from scipy.special import k0e, k1e

from .coset import GramTriple, IndexPair, gram as coset_gram
from . import quadspace
from .scalar import GaussRational

# --- the signature (2,2) block ----------------------------------------------

J4 = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
              dtype=float)

Y0 = np.array([1.0, 0.0, 0.0, 1.0])   # b3 + b-3
Y1 = np.array([0.0, 1.0, 1.0, 0.0])   # b4 + b-4
V1 = Y0 / sqrt(2.0)
V2 = Y1 / sqrt(2.0)


def pairing22(u, w) -> complex:
    return complex(np.asarray(u) @ J4 @ np.asarray(w))


# --- K-Bessel ----------------------------------------------------------------

def bessel_k_row(nmax: int, x) -> np.ndarray:
    """[K_0(x), ..., K_nmax(x)]: library seeds K_0, K_1 and the upward
    recurrence K_{n+1} = K_{n-1} + (2n/x) K_n (stable in this direction).
    For an array x, row n is K_n on every entry of x."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("bessel_k_row requires x > 0")
    row = [k0e(x) * np.exp(-x), k1e(x) * np.exp(-x)]
    for n in range(1, nmax):
        row.append(row[n - 1] + (2.0 * n / x) * row[n])
    return np.stack(row[:nmax + 1])


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
        if m.shape != (2, 2) or np.linalg.det(m) <= 0:
            raise ValueError("m must be 2x2 with positive determinant")
        if h.shape != (4, 4) or np.max(np.abs(h.T @ J4 @ h - J4)) > 1e-12:
            raise ValueError("h must preserve the (2,2) form")

    @staticmethod
    def identity() -> "LeviPoint":
        return LeviPoint(np.eye(2), np.eye(4))


def _h_inverse(h: np.ndarray) -> np.ndarray:
    # h^{-1} = J h^t J for the antidiagonal form
    return J4 @ h.T @ J4


def beta_fn(T1, T2, r: LeviPoint) -> complex:
    """beta_{[T1,T2]}(r): sqrt(2) i times the pairing of
    r^{-1}(b_{-1} x T1 + b_{-2} x T2) against
    b_1 x (v1 + i v2) + b_2 x i(v1 + i v2)."""
    hinv = _h_inverse(r.h)
    s1 = hinv @ np.asarray(T1, dtype=float)
    s2 = hinv @ np.asarray(T2, dtype=float)
    # r^{-1} acts on the dual pair (b_{-1}, b_{-2}) by m^t, so the component
    # along b_{-i} becomes sum_j m[j][i] h^{-1} T_j.
    m = r.m
    tp1 = m[0][0] * s1 + m[1][0] * s2
    tp2 = m[0][1] * s1 + m[1][1] * s2
    target = (V1 + 1j * V2).astype(complex)
    val = pairing22(tp1, target) + 1j * pairing22(tp2, target)
    return sqrt(2.0) * 1j * val


@dataclass(frozen=True)
class WhittakerValue:
    """Coefficients of x^{l+v} y^{l-v} / ((l+v)! (l-v)!), v = -l..l.  When
    they come from a quadrature, err is its absolute error estimate (2-norm
    over the components) and intervals counts the intervals it evaluated,
    GK_NODES integrand values each; otherwise None and 0."""
    ell: int
    components: Tuple[complex, ...]
    err: Optional[float] = None
    intervals: int = 0

    def __post_init__(self):
        if len(self.components) != 2 * self.ell + 1:
            raise ValueError("need 2*ell + 1 components")

    def component(self, v: int) -> complex:
        if abs(v) > self.ell:
            raise ValueError("|v| must be at most ell")
        return self.components[v + self.ell]


def _whittaker_components(beta: np.ndarray, pref: float,
                          ell: int) -> np.ndarray:
    """Rows pref (beta/|beta|)^v K_|v|(|beta|), v = -ell..ell, one row per
    entry of the complex array beta."""
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


def _s_v_exact(v: int, X: Fraction) -> GaussRational:
    """S_v(X) / (pi e^{-X}) at rational X > 0, exactly: the polynomial of
    _s_v_poly evaluated at X = p/q by Horner's rule in integers."""
    re, im = _s_v_poly(v)
    top = len(re)
    # sum_m coeff[m] (q/p)^m = (sum_m coeff[m] q^m p^{M-m}) / p^M
    p, q = X.numerator, X.denominator
    num_re, num_im, pw = re[-1], im[-1], 1
    for m in range(top - 2, -1, -1):
        pw *= p
        num_re = num_re * q + re[m] * pw
        num_im = num_im * q + im[m] * pw
    return GaussRational.over(num_re, num_im, pw << top)


def s_v_sum(v: int, X: float) -> complex:
    """S_v(X): the finite half-integer K-Bessel sum; equals pi e^{-X} i^v / 2.

    The individual terms grow like (2/X)^{|v|} while the total stays O(1),
    so the sum is carried out exactly at the float's rational value of X
    (_s_v_exact), and only the common factor pi e^{-X} is a float."""
    if X <= 0:
        raise ValueError("s_v_sum requires X > 0")
    return pi * exp(-X) * complex(_s_v_exact(v, Fraction(X)))


# --- the Fourier-Jacobi archimedean integral ---------------------------------

def _plane_rotation(p1: np.ndarray, p2: np.ndarray, theta: float,
                    J: np.ndarray) -> np.ndarray:
    """Rotation (both vectors of norm +1 or both -1) or boost (mixed norms)
    by theta in the plane of the J-orthonormal pair (p1, p2)."""
    n1 = float(p1 @ J @ p1)
    n2 = float(p2 @ J @ p2)
    dim = len(p1)
    if n1 == n2:
        c, s = np.cos(theta), np.sin(theta)
        return (np.eye(dim)
                + n1 * (c - 1) * (np.outer(p1, J @ p1) + np.outer(p2, J @ p2))
                + n1 * s * (np.outer(p2, J @ p1) - np.outer(p1, J @ p2)))
    c, s = np.cosh(theta), np.sinh(theta)
    return (np.eye(dim)
            + (c - 1) * (np.outer(p1, J @ p1) - np.outer(p2, J @ p2)) * n1
            + s * (np.outer(p2, J @ p1) - np.outer(p1, J @ p2)) * n1)


def boost_u(theta: float) -> np.ndarray:
    """An element of SO(V_{1,2})(R)^0 fixing y0: the hyperbolic rotation by
    theta in the plane spanned by y1 and the negative vector b4 - b-4."""
    p = Y1 / sqrt(2.0)
    n = np.array([0.0, 1.0, -1.0, 0.0]) / sqrt(2.0)    # (b4 - b-4)/sqrt2
    return _plane_rotation(p, n, theta, J4)


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
_GK_EPSREL = 1e-9         # relative tolerance of archimedean_integral_check


def _gauss_kronrod(f, a: float, b: float, epsabs: float, epsrel: float
                   ) -> Tuple[np.ndarray, float, int]:
    """Adaptive Gauss-Kronrod 7/15 quadrature of a vector-valued f over
    [a, b]: (integral, error estimate, intervals evaluated).

    f maps a 1-d array of points to one row of values per point.  Each
    round evaluates the 15 nodes of every open interval in one call of f.
    An interval's error estimate is ||K15 - G7||_2, raised to the rounding
    floor 50 eps ||K15 of |f| ||_2.  The intervals are all accepted once
    their estimates sum to at most tol = max(epsabs, epsrel ||integral||);
    before that an interval is accepted when its estimate is within its
    share of tol by length or is the rounding floor, and the others are
    bisected.  The estimate returned is the sum over the accepted
    intervals.  Once another round would pass _GK_LIMIT intervals, or an
    estimate is not finite, the open intervals are accepted unconverged,
    estimates included."""
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    total, err, evaluated = 0.0, 0.0, 0
    while True:
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        fx = f((mid[:, None] + half[:, None] * _GK_X).ravel())
        fx = fx.reshape(len(lo), GK_NODES, -1)
        k15 = half[:, None] * np.einsum("k,ikc->ic", _GK_W, fx)
        g7 = half[:, None] * np.einsum("k,ikc->ic", _G7_W, fx)
        rounding = 50.0 * np.finfo(float).eps * np.linalg.norm(
            half[:, None] * np.einsum("k,ikc->ic", _GK_W, np.abs(fx)), axis=1)
        diff = np.linalg.norm(k15 - g7, axis=1)
        est = np.maximum(diff, rounding)
        evaluated += len(lo)
        tol = max(epsabs, epsrel * np.linalg.norm(total + k15.sum(axis=0)))
        if err + est.sum() <= tol:
            done = np.ones(len(lo), dtype=bool)
        else:
            # at the rounding floor, halves have half the estimate and half
            # the share, so bisection cannot help
            done = (est <= tol * (hi - lo) / (b - a)) | (diff <= rounding)
            if (evaluated + 2 * np.count_nonzero(~done) > _GK_LIMIT
                    or not np.isfinite(est).all()):
                done[:] = True
        total = total + k15[done].sum(axis=0)
        err += float(est[done].sum())
        if done.all():
            return total, err, evaluated
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])


def archimedean_integral_check(T, t: float, u, ell: int
                               ) -> Tuple[WhittakerValue, WhittakerValue]:
    """Numeric integral over s of the Whittaker value along
    r(s) = (m(s), u) with m(s) = [[1, s t], [0, t]], for the ordered pair
    [y0, T] with T in the orthogonal complement of y0; versus the closed
    form (pi t^ell e^{-(2-w)} / 2) i^v with w = t (T, u . y1).  The
    numeric value comes from _gauss_kronrod and carries its error
    estimate and interval count."""
    T = np.asarray(T, dtype=float)
    u = np.asarray(u, dtype=float)
    if t <= 0:
        raise ValueError("t must be positive")
    if abs(pairing22(T, Y0)) > 1e-12:
        raise ValueError("T must be orthogonal to y0")
    if pairing22(T, T).real <= 0:
        raise ValueError("T must span a positive line")
    w = t * pairing22(T, u @ Y1).real
    if 2.0 - w <= 0:
        raise ValueError("precondition violated: 2 - t (T, u . y1) <= 0")
    # truncation: |beta| >= 2t|s|, so K_v decays like e^{-2t|s|}
    smax = (60.0 + 2.0 * ell * np.log(1.0 + ell)) / (2.0 * t) + 5.0

    # beta along the line has the closed form beta(s) = -2 s t + i (2 - w),
    # so the integrand never degenerates, and det m(s) = t.  The closed
    # form is checked against the pairing computation at s = 0 and at four
    # of the first round's nodes.
    for s in (0.0, *(smax * _GK_X[::4])):
        b = complex(-2.0 * s * t, 2.0 - w)
        m = np.array([[1.0, s * t], [0.0, t]])
        assert abs(beta_fn(Y0, T, LeviPoint(m, u)) - b) < 1e-9 * (1 + abs(b))

    def integrand(s):
        return _whittaker_components(-2.0 * t * s + 1j * (2.0 - w),
                                     t ** ell * t, ell)

    res, err, intervals = _gauss_kronrod(integrand, -smax, smax, 1e-14,
                                         _GK_EPSREL)
    numeric = WhittakerValue(ell, tuple(res.tolist()), err, intervals)
    scale = pi * t ** ell * exp(-(2.0 - w)) / 2.0
    closed = WhittakerValue(
        ell, tuple(scale * 1j ** v for v in range(-ell, ell + 1)))
    return numeric, closed


# --- Poincare summand --------------------------------------------------------

def _prk_int_matrices() -> np.ndarray:
    """Re(2 C_e), Im(2 C_e) and Im(2 C_h) as int64 8x8 matrices M, giving
    the key integers x, y, z = w1^t M w2, where for b_k = e+, h+, f+

        2 tr(act(w1 ^ w2) b_k) = w1^t (2 C_k) w2,  C_k = J b_k - (J b_k)^t

    (J, the pairing, reverses the rows).  Built exactly from quadspace's
    integer action matrices, checking what the closed form of _prk_coeffs
    rests on: the trace form's Gram matrix, every 2 C_k Gaussian-integral,
    and Re(2 C_h) = 0, Re(2 C_f) = -Re(2 C_e), Im(2 C_f) = Im(2 C_e); and
    what q_poincare's fold split rests on: row i of each M equals row
    7 - i, and column j equals column 7 - j."""
    su2 = (quadspace.E_PLUS, quadspace.H_PLUS, quadspace.F_PLUS)
    if [[quadspace.trace_form(a, b) for b in su2] for a in su2] != [
            [0, 0, 2], [0, 4, 0], [2, 0, 0]]:
        raise ArithmeticError("the trace form on span{e+, h+, f+} changed")
    parts = []
    for b in su2:
        for part in (b.re, b.im):
            c2 = 2 * (part[::-1] - part[::-1].T)
            if (c2 % b.den).any():
                raise ArithmeticError("2 C_k is not Gaussian-integral")
            parts.append(c2 // b.den)
    re_e, im_e, re_h, im_h, re_f, im_f = parts
    if re_h.any() or (re_f != -re_e).any() or (im_f != im_e).any():
        raise ArithmeticError("2 C_h and 2 C_f are not fixed by x, y, z")
    mats = np.stack([re_e, im_e, im_h])
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


def _sym_power_batch(coeffs: np.ndarray, ell: int) -> np.ndarray:
    """Rows (c_xx x^2 + c_xy xy + c_yy y^2)^ell / ||.||^(2 ell + 1) for
    rows (c_xx, c_xy, c_yy) of coeffs, as coefficients of x^{l+v} y^{l-v},
    v ascending, in a C-contiguous (rows, 2 ell + 1) array; a degenerate
    (zero) projection raises.

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
    result equals tests/oracles.py's sym_power_by_convolution bit for
    bit."""
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
    poly /= nrm ** (2 * ell + 1)
    return poly.T.copy()


def _key_bases(radius: int) -> List[int]:
    """Mixed-radix bases 2 M_j + 1 packing the three key integers
    w1^t M_j w2 (M_j the matrices of _PRK2) for sup-norms <= radius, with
    M_j = radius^2 sum |entries of M_j| bounding |w1^t M_j w2|."""
    return [2 * radius ** 2 * int(np.abs(m).sum()) + 1 for m in _PRK2]


def _max_key_radius() -> int:
    r = 1
    while prod(_key_bases(r + 1)) <= 2 ** 63:
        r += 1
    return r


@dataclass(frozen=True)
class PoincareSum:
    """A partial Poincare sum: its 2 ell + 1 components (v ascending);
    shell_sup[s - 1], the sup-norm of the contribution of shell s (the
    pairs whose larger sup-norm is s), the last one being the convergence
    indicator; the number of lattice pairs summed and of the distinct
    su(2) projections (groups) they fall into; and the work, fold_pairs,
    which equality ignores (0 when the sum was not made on folds)."""
    components: Tuple[complex, ...]
    shell_sup: Tuple[float, ...]
    pairs: int
    groups: int
    fold_pairs: int = field(default=0, compare=False)


# Every sign vector in {+1, -1}^4, one per row.
_SIGNS = 1 - 2 * (np.arange(16)[:, None] >> np.arange(4) & 1)

# Fold pairs per block of q_poincare (its t pairs per block are about as
# many); each block holds a few int64 arrays of this length.
_FOLD_BLOCK = 1 << 20


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
    two coordinates each on |s|^2 - |t|^2 = 4 q."""
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
    patterns, t_pattern = np.unique(rows[:, 0::2], axis=0,
                                    return_inverse=True)
    t_pattern = t_pattern.ravel()
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
    a row of s1, of pattern s1_pattern in lo..hi-1 of A, and s2 a fold of
    C.  Returns the mask of the fold pairs with at least one pair, and
    their pairs per shell, one row each in the mask's row-major order.

    Since the pairing is (s1.s2 - t1.t2)/2, the counts are
    H[|s1|, |s2|][s1.s2 - 2b, shell], where H counts the pairs of t rows
    of patterns lo..hi-1 of A and of C by t1.t2 and shell.  H is built
    sparse, over the dot values that occur; a t-set is closed under sign
    changes, so t1 runs over t1 >= 0 with multiplicity 2^(nonzeros)."""
    # |t1.t2| and |s1.s2 - 2b| are at most d_off
    d_off = 16 * radius ** 2 + 2 * abs(b)
    n_d, n_c = 2 * d_off + 1, len(C.patterns)
    r = slice(*np.searchsorted(A.t_pattern, [lo, hi]))
    nonneg = (A.t[r] >= 0).all(axis=1)
    t1, t1_sup = A.t[r][nonneg], A.sup[r][nonneg]
    code = (((A.t_pattern[r][nonneg, None] - lo) * n_c + C.t_pattern) * n_d
            + t1 @ C.t.T + d_off) * radius
    code += np.maximum(t1_sup[:, None], C.sup) - 1
    code, n = _group(code.ravel(), np.repeat(
        1 << np.count_nonzero(t1, axis=1), len(C.t)))
    h_code, h_row = np.unique(code // radius, return_inverse=True)
    H = np.zeros((len(h_code), radius), dtype=np.int64)
    H[h_row, code % radius] = n
    code = (((s1_pattern[:, None] - lo) * n_c + C.fold_pattern) * n_d
            + s1 @ C.folds.T - 2 * b + d_off)
    at = np.searchsorted(h_code, code).clip(max=len(h_code) - 1)
    hit = h_code[at] == code
    return hit, H[at[hit]]


def q_poincare(T: GramTriple, ell: int, radius: int) -> PoincareSum:
    """Sum of pr_K(v1 ^ v2)^ell / ||pr_K(v1 ^ v2)||^(2 ell + 1) (as
    coefficients of x^{l+v} y^{l-v}, v ascending) over the integral pairs
    with S(v1, v2) = T and sup-norms <= radius, shell by shell.

    The summand depends on the pair only through pr_K(v1 ^ v2), which is
    fixed, in closed form (_prk_coeffs), by three integers x, y, z
    bilinear in the pair (_prk_int_matrices).  So the pairs are grouped by
    these three integers, computed exactly in int64 and packed in mixed
    radix into one int64 key (_key_bases), and the symmetric power is
    built once per group and weighted by the group's pair counts.

    The pairs are counted on the fold split: with s = (v0 + v7, ...,
    v3 + v4) and t = (v0 - v7, ..., v3 - v4) (_FoldSet), each key matrix
    has row i equal to row 7 - i and column j equal to column 7 - j, so
    x, y, z are s1^t M' s2 with M' its top-left 4x4 block, and the pairs
    over a fold pair (s1, s2), by shell, are counted from the patterns
    |s1|, |s2| and s1.s2 alone (_pair_counts).  The folds of v1 run in
    blocks of whole patterns, each block reducing its fold pairs to one
    row of pair counts per key, and one sort over all blocks groups the
    keys, so memory grows with folds and groups, not with pairs.
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
    if prod(bases) > 2 ** 63:
        raise ValueError(f"radius {radius} overflows the int64 projection "
                         f"keys; the largest radius allowed is "
                         f"{_max_key_radius()}")
    offsets = np.array([(b - 1) // 2 for b in bases], dtype=np.int64)
    strides = np.array([prod(bases[:j]) for j in range(len(bases))],
                       dtype=np.int64)
    # key - offsets . strides = s1^t key_matrix s2
    key_matrix = np.einsum("j,jik->ik", strides, _PRK2[:, :4, :4])
    A, C = _fold_set(radius, T.a), _fold_set(radius, T.c)
    lead = A.folds[np.arange(len(A.folds)), np.argmax(A.folds != 0, axis=1)]
    s1, s1_pattern = A.folds[lead > 0], A.fold_pattern[lead > 0]
    s1_end = np.searchsorted(s1_pattern, np.arange(len(A.patterns) + 1))
    # blocks of whole patterns, each of about _FOLD_BLOCK fold pairs
    step = max(1, _FOLD_BLOCK // max(1, len(C.folds)))
    cuts = np.unique(np.searchsorted(s1_end, np.arange(0, len(s1), step)))
    keys = [np.zeros(0, dtype=np.int64)]
    counts = [np.zeros((0, radius), dtype=np.int64)]
    for lo, hi in zip(cuts, np.append(cuts[1:], len(A.patterns))):
        f = slice(s1_end[lo], s1_end[hi])
        hit, n = _pair_counts(A, C, lo, hi, s1[f], s1_pattern[f], T.b,
                              radius)
        block_keys, block_counts = _group(
            (s1[f] @ key_matrix @ C.folds.T)[hit], n)
        keys.append(block_keys)
        counts.append(block_counts)
    keys, counts = _group(np.concatenate(keys), np.concatenate(counts))
    keys += offsets @ strides
    counts *= 2
    digits = keys[:, None] // strides % np.array(bases) - offsets
    terms = _sym_power_batch(_prk_coeffs(digits), ell)
    return PoincareSum(tuple(counts.sum(axis=1) @ terms),
                       tuple(float(np.max(np.abs(s)))
                             for s in counts.T @ terms),
                       int(counts.sum()), len(keys),
                       len(s1) * len(C.folds))


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
