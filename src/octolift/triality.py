"""The cubic-norm-structure Lie algebra g_E for E = F x F x F, the explicit
isomorphism Phi: g_E -> wedge^2 O onto the octonionic so(8), triality-triple
verification, and the S3 action on integer cubes (alpha, beta, gamma, delta)
indexing Heisenberg characters, induced through Phi from the S3 action on
the E-coordinates of g_E.

Conventions:
  * g_E = (sl_3 + E^0) + V_3 (x) E + V_3^dual (x) E^dual.
  * E^0 elements are stored as u = (u1,u2,u3) with u1+u2+u3 = 0, meaning the
    operator Psi_{2u} ("multiplication by 2u" on E, by -2u on E^dual).
  * The wedge identifications v_i ^ v_j = delta_k and delta_i ^ delta_j = v_k
    for (i,j,k) cyclic.
  * Permutations sigma act on E-coordinates by (sigma z)_i = z_{sigma^{-1}(i)};
    sigma is given as a tuple p of length 3 with p[i-1] = sigma(i).

An element of g_E is an int64 array of its 28 coordinates in the basis of
ge_basis() over one positive denominator; leading axes index a batch.  The
structure constants only divide by 2 and 3, Phi is one integer table and
its inverse one integer matrix over one denominator, so every check here is
exact integer array arithmetic: elementwise in int64 below 2^62, and the
contractions whose size grows with a batch or with the 28 x 28 basis pairs
in float64 BLAS below 2^53 (quadspace.exact_matmul), where every partial
sum is an integer that float64 holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import List, Tuple

import numpy as np

from .octonion import (B_BASIS, BASIS, Octonion, oct_mul, to_vector8,
                       trace as oct_trace)
from .quadspace import (Bivector, amax, bracket, exact_matmul, fits,
                        fits_float, int_parts, reduced, skew_bivector,
                        skew_coords, wedge)


# --- the Lie algebra g_E ------------------------------------------------------

# Coordinates, in the order of ge_basis(): the six off-diagonal E_jk in _OFF
# order, the Cartan h1 = E11 - E22 and h2 = E22 - E33, the E^0 elements
# u = (1, -1, 0) and (0, 1, -1), the nine v_j (x) e_m and the nine
# delta_j (x) e_m (row j, column m).
_OFF = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
_OFF_J, _OFF_K = [j for j, _ in _OFF], [k for _, k in _OFF]
GE_DIM = 28


@dataclass(frozen=True, eq=False)
class GEElement:
    """num / den in the coordinates of ge_basis(): num an int64 array of
    shape (..., 28) whose leading axes index a batch, den a positive int
    shared by the batch."""
    num: np.ndarray
    den: int = 1

    @staticmethod
    def of(num, den: int = 1) -> "GEElement":
        """num / den with the common factor divided out."""
        den, num = reduced(den, num)
        return GEElement(num, den)

    def __getitem__(self, index) -> "GEElement":
        """Batch element(s) at index."""
        return GEElement.of(self.num[index], self.den)

    def eq_mask(self, other: "GEElement") -> np.ndarray:
        """Boolean array over the broadcast batch: which elements equal
        other's."""
        fits(amax(self.num) * other.den + amax(other.num) * self.den)
        return (self.num * other.den == other.num * self.den).all(axis=-1)

    def __eq__(self, other):
        if not isinstance(other, GEElement):
            return NotImplemented
        return (self.num.shape == other.num.shape
                and bool(self.eq_mask(other).all()))

    __hash__ = None


GE_BASIS = GEElement(np.eye(GE_DIM, dtype=np.int64))


def ge_basis():
    """Ordered 28-element basis of g_E: 6 off-diagonal E_{jk}, 2 diagonal
    Cartan elements, 2 E^0, 9 v_j(x)e_m, 9 delta_j(x)e_m."""
    return [GE_BASIS[k] for k in range(GE_DIM)]


def _fields(num):
    """(sl3, u, vE, dE) of coordinate arrays num (..., 28): int arrays of
    shapes (..., 3, 3), (..., 3), (..., 3, 3), (..., 3, 3)."""
    shape = num.shape[:-1]
    sl3 = np.zeros(shape + (3, 3), dtype=np.int64)
    sl3[..., _OFF_J, _OFF_K] = num[..., :6]
    h1, h2 = num[..., 6], num[..., 7]
    sl3[..., 0, 0], sl3[..., 1, 1], sl3[..., 2, 2] = h1, h2 - h1, -h2
    a, b = num[..., 8], num[..., 9]
    u = np.stack([a, b - a, -b], axis=-1)
    return (sl3, u, num[..., 10:19].reshape(shape + (3, 3)),
            num[..., 19:].reshape(shape + (3, 3)))


def _coords(sl3, u, vE, dE):
    """Inverse of _fields, for a traceless sl3 and u summing to 0."""
    shape = sl3.shape[:-2]
    return np.concatenate(
        [sl3[..., _OFF_J, _OFF_K], sl3[..., 0, :1], -sl3[..., 2, 2:],
         u[..., :1], -u[..., 2:], vE.reshape(shape + (9,)),
         dE.reshape(shape + (9,))], axis=-1)


# Row s of _SHIFTS holds, at 3 k + m, the flat index of (k + a, m + b) mod 3
# in a 3x3 array, for (a, b) = (1, 1), (1, 2), (2, 1), (2, 2).
_SHIFTS = np.array([[3 * ((k + a) % 3) + (m + b) % 3
                     for k in range(3) for m in range(3)]
                    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2))])
_SIGNS = np.array([1, 1, -1, -1])


def _wedge3(X, Y):
    """Row k is sum_{i,j} eps_ijk X_i x Y_j = X_{k+1} x Y_{k+2} -
    X_{k+2} x Y_{k+1}, over the broadcast batch shape of X and Y:
    [v_i (x) x, v_j (x) x'] = (v_i ^ v_j) (x) (x x x') with v_i ^ v_j =
    eps_ijk delta_k, and dually.  With the E cross product (x x y)_m =
    x_{m+1} y_{m+2} + x_{m+2} y_{m+1}, entry (k, m) is the sum of the
    four products X[k+a, m+b] Y[k+3-a, m+3-b] over the rows of _SHIFTS,
    with _SIGNS."""
    Xs = X.reshape(X.shape[:-2] + (9,))[..., _SHIFTS]
    Ys = Y.reshape(Y.shape[:-2] + (9,))[..., _SHIFTS[::-1]]
    W = _SIGNS @ (Xs * Ys)
    return W.reshape(W.shape[:-1] + (3, 3))


def ge_bracket(A: GEElement, B: GEElement) -> GEElement:
    """Lie bracket on g_E, all five structural cases, over the leading batch
    axes of A and B, multiplied through by 3 to clear the 1/3 of the last:
      * [sl3, sl3]: the matrix commutator;
      * [phi, v (x) x] = (phi v) (x) x, [phi, delta (x) g] = -(phi^t delta)
        (x) g;
      * [Psi_{2u}, v (x) x] = v (x) 2ux, [Psi_{2u}, delta (x) g] =
        delta (x) -2ug;
      * [v_i (x) x, v_j (x) x'] = (v_i ^ v_j) (x) (x x x'), and dually;
      * [delta_j (x) g, v_k (x) x] = (g, x)(E_kj - delta_jk / 3) +
        delta_jk Psi_{2w}, w = xg - (x, g)/3 1_E."""
    S, u, V, D = _fields(A.num)
    S2, u2, V2, D2 = _fields(B.num)
    fits(1000 * amax(A.num) * amax(B.num))
    T = lambda M: M.swapaxes(-1, -2)
    P = V2 @ T(D) - V @ T(D2)           # P[k, j] = (g_j, x_k), both orders
    t = np.trace(P, axis1=-2, axis2=-1)[..., None]
    sl3 = 3 * (S @ S2 - S2 @ S + P) - t[..., None] * np.eye(3, dtype=np.int64)
    e0 = 3 * (V2 * D - V * D2).sum(axis=-2) - t
    vE = 3 * (S @ V2 - S2 @ V + 2 * (u[..., None, :] * V2
                                     - u2[..., None, :] * V)
              + _wedge3(D, D2))
    dE = 3 * (T(S2) @ D - T(S) @ D2 - 2 * (u[..., None, :] * D2
                                           - u2[..., None, :] * D)
              + _wedge3(V, V2))
    return GEElement.of(_coords(sl3, e0, vE, dE), 3 * A.den * B.den)


def ge_cartan(X: GEElement) -> GEElement:
    """Theta: -transpose on sl3, -1 on E^0, swap of the V3(x)E and
    V3^dual (x) E^dual parts (iota is the coordinate identity)."""
    S, u, V, D = _fields(X.num)
    return GEElement.of(_coords(-S.swapaxes(-1, -2), -u, D, V), X.den)


# --- the isomorphism Phi ------------------------------------------------------

_V8 = {name: to_vector8(o) for name, o in BASIS.items()}


def _w(a: str, b: str) -> Bivector:
    return wedge(_V8[a], _V8[b])


def _cyc(j: int) -> Tuple[int, int]:
    """(j+1, j-1) cyclically in {1,2,3}."""
    return (j % 3 + 1, (j + 1) % 3 + 1)


def _phi_table() -> np.ndarray:
    """Phi of the 28 basis elements, as integer 8x8 action matrices:
    E_jk -> e_k* ^ e_j; h_j through the bracket, h_j = [E_{j,j+1},
    E_{j+1,j}], so that Phi is consistent on the Cartan; Psi_{2u} ->
    (u1 - u3) eps1 ^ eps2 + u2 sum_i e_i ^ e_i*; and for x = (x1, x2, x3),
    v_j (x) x -> x1 eps1 ^ e_j + x2 e_{j+1}* ^ e_{j-1}* - x3 eps2 ^ e_j,
    delta_j (x) g -> -g1 eps2 ^ e_j* + g2 e_{j+1} ^ e_{j-1} + g3 eps1 ^ e_j*."""
    imgs = [_w(f"e{k + 1}*", f"e{j + 1}") for j, k in _OFF]
    imgs += [bracket(imgs[0], imgs[2]), bracket(imgs[3], imgs[5])]
    s = _w("e1", "e1*") + _w("e2", "e2*") + _w("e3", "e3*")
    imgs += [_w("eps1", "eps2") - s, _w("eps1", "eps2") + s]
    for j in (1, 2, 3):
        jp, jm = _cyc(j)
        imgs += [_w("eps1", f"e{j}"), _w(f"e{jp}*", f"e{jm}*"),
                 -_w("eps2", f"e{j}")]
    for j in (1, 2, 3):
        jp, jm = _cyc(j)
        imgs += [-_w("eps2", f"e{j}*"), _w(f"e{jp}", f"e{jm}"),
                 _w("eps1", f"e{j}*")]
    if any(X.den != 1 for X in imgs):
        raise ArithmeticError("Phi of a basis element is not integral")
    return np.stack([X.num for X in imgs])


def int_inverse(m) -> Tuple[List[List[int]], int]:
    """(N, d) with M^{-1} = N / d, d = +-det M, for a square integer matrix
    M: fraction-free Gauss-Jordan elimination (Bareiss 1968), in which every
    division is exact.  Raises ValueError if M is singular."""
    r = len(m)
    a = [[int(e) for e in row] + [int(i == j) for j in range(r)]
         for i, row in enumerate(m)]
    prev = 1
    for k in range(r):
        piv = next((i for i in range(k, r) if a[i][k]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        p = a[k][k]
        for i in range(r):
            if i != k:
                f = a[i][k]
                a[i] = [(p * e - f * g) // prev for e, g in zip(a[i], a[k])]
        prev = p
    # the left block is now prev times the identity
    return [row[r:] for row in a], prev


def _phi_inverse():
    """(N, d), d > 0, with N / d the inverse of the 28x28 integer matrix of
    Phi from basis coordinates to bivector coefficients."""
    N, d = int_inverse(_PHI_COORDS.T)
    return np.array(N, dtype=np.int64) * (1 if d > 0 else -1), abs(d)


_PHI = _phi_table()
# Row k: the coefficients of Phi(basis_k) on the b_i ^ b_j (skew_coords).
_PHI_COORDS = skew_coords(_PHI)
_PHI_COORDS_F = _PHI_COORDS.astype(np.float64)
_PHI_INV, _PHI_INV_DEN = _phi_inverse()


def phi_iso(X: GEElement) -> Bivector:
    """Phi(X) = sum_k X_k Phi(basis_k), one contraction with the table."""
    fits(GE_DIM * amax(_PHI) * amax(X.num))
    return Bivector.of(np.tensordot(X.num, _PHI, axes=(-1, 0)), X.den)


def phi_inv(Y: Bivector) -> GEElement:
    """Exact inverse of phi_iso: the inverse matrix applied to Y's bivector
    coefficients."""
    y = skew_coords(Y.num)
    fits(GE_DIM * amax(_PHI_INV) * amax(y))
    return GEElement.of(y @ _PHI_INV.T, _PHI_INV_DEN * Y.den)


def _commutator_coords(P: Bivector) -> np.ndarray:
    """Numerators over P.den ** 2 of the coordinates (skew_coords) of
    [P_i, P_j] for every pair of a batch P of n elements: an
    (n, n, 28) array.  Every product P_i P_j is block (i, j) of one
    (8n x 8) @ (8 x 8n) product M, so that [P_i, P_j] = M[i, j] - M[j, i],
    in float64 (exact_matmul): its bound, twice a product entry's, covers
    that difference as well."""
    n = len(P.num)
    M = exact_matmul(P.num.reshape(8 * n, 8),
                     P.num.transpose(1, 0, 2).reshape(8, 8 * n),
                     16 * amax(P.num) ** 2)
    MC = skew_coords(M.reshape(n, 8, n, 8).transpose(0, 2, 1, 3))
    return MC - MC.swapaxes(0, 1)


def bracket_defects(C: GEElement, P: Bivector) -> np.ndarray:
    """Boolean (n, n) array for the images P = phi_iso(b) of n elements
    b_i of g_E and the (n, n) batch C of their brackets [b_i, b_j]: True
    at (i, j) where Phi(C[i, j]) != [P_i, P_j], exactly.  Phi(C[i, j]) and
    the commutators of the skew P_i are skew, and a skew matrix is
    determined by its 28 coordinates, so comparing those is exact.  Both
    sides are float64 over C.den * P.den ** 2; the bound of the
    contraction with _PHI_COORDS covers its scaling by P.den ** 2."""
    so8 = _commutator_coords(P)
    fits_float(amax(so8) * C.den)
    phi = exact_matmul(C.num, _PHI_COORDS_F,
                       GE_DIM * amax(_PHI_COORDS) * amax(C.num) * P.den ** 2)
    return (phi * P.den ** 2 != so8 * C.den).any(axis=-1)


# --- octonions as int64 arrays ------------------------------------------------

# An octonion batch is an int64 array of shape (..., 8) of to_vector8
# coordinates (the b-basis), whose leading axes index the batch.  Every
# function below bounds its result before computing it: with fits for
# elementwise int64 work, with exact_matmul for a contraction with a table.

# b_i b_j = sum_k _MUL[i, j, k] b_k, and the trilinear form
# _TR[i, j, k] = tr(b_i (b_j b_k)), over the b-basis.
_MUL = np.array([[to_vector8(oct_mul(x, y)) for y in B_BASIS]
                 for x in B_BASIS], dtype=np.int64)
_TR = np.einsum("jkm,imn,n->ijk", _MUL, _MUL,
                np.array([oct_trace(x) for x in B_BASIS], dtype=np.int64))
# _TR_SLOTS[c][m] is _TR with m in slot c, over the other two slots in
# order: _TR[m, y, z], _TR[x, m, z] and _TR[x, y, m], as (8, 64) arrays.
_TR_SLOTS = tuple(np.ascontiguousarray(_TR.transpose(order).reshape(8, 64),
                                       dtype=np.float64)
                  for order in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
# The tables as the float64 right operands of exact_matmul.
_MUL_F = _MUL.reshape(64, 8).astype(np.float64)
_TR_F = _TR.reshape(64, 8).astype(np.float64)

# Octonionic conjugation is minus the permutation of the b-basis that swaps
# b3 = eps2 and b-3 = -eps1.
_CONJ_PERM = (0, 1, 5, 3, 4, 2, 6, 7)


def _outer(x, y):
    """Rows 8 i + j of x_i y_j over the broadcast batch shape, in float64.
    The caller bounds the contraction that follows with exact_matmul, so
    an entry it multiplies by a nonzero table entry is below 2^53 and
    exact."""
    x, y = x.astype(np.float64), y.astype(np.float64)
    xy = x[..., :, None] * y[..., None, :]
    return xy.reshape(xy.shape[:-2] + (64,))


def mul8(x, y):
    """Zorn products x y: one contraction with _MUL."""
    xy = exact_matmul(_outer(x, y), _MUL_F,
                      64 * amax(_MUL) * amax(x) * amax(y))
    return xy.astype(np.int64)


def conj8(x):
    """Conjugates: minus the _CONJ_PERM permutation."""
    return -x[..., _CONJ_PERM]


def norm8(x):
    """n(x) = -q(x), with q(w) = sum_{i<4} w_i w_{7-i}."""
    fits(4 * amax(x) ** 2)
    return -(x[..., :4] * x[..., :3:-1]).sum(axis=-1)


def trilinear8(x, y, z):
    """(x, y, z) = tr(x (y z)): one contraction with _TR, then the sum
    against z in int64."""
    bound = 64 * amax(_TR) * amax(x) * amax(y)
    xy = exact_matmul(_outer(x, y), _TR_F, bound).astype(np.int64)
    fits(8 * bound * amax(z))
    return (xy * z).sum(axis=-1)


def octonion_identities(x, y, z):
    """Boolean arrays over the batch, True where the identity holds:
    n(xy) = n(x) n(y), conj(xy) = conj(y) conj(x), and
    (x, y, z) = (y, z, x) = (z, x, y)."""
    xy = mul8(x, y)
    fits(16 * amax(x) ** 2 * amax(y) ** 2)
    norm_ok = norm8(xy) == norm8(x) * norm8(y)
    conj_ok = (conj8(xy) == mul8(conj8(y), conj8(x))).all(axis=-1)
    t = trilinear8(x, y, z)
    cyclic_ok = (t == trilinear8(y, z, x)) & (t == trilinear8(z, x, y))
    return norm_ok, conj_ok, cyclic_ok


# --- triality triples ---------------------------------------------------------

def triality_defects(X1: Bivector, X2: Bivector, X3: Bivector) -> np.ndarray:
    """Boolean array over the broadcast batch: True where
    (X1 x, y, z) + (x, X2 y, z) + (x, y, X3 z) = 0 fails for some of the
    8^3 octonion basis triples, exactly: each term one float64 matmul of
    its action matrices, over a common denominator, with the trilinear
    tensor (exact_matmul).  Their bound is that of the three terms
    together, so it covers their sum as well."""
    den = lcm(X1.den, X2.den, X3.den)
    bound = (max(den // X.den * amax(X.num) for X in (X1, X2, X3))
             * 3 * 8 * amax(_TR))
    A = [X.num.astype(np.float64) * (den // X.den) for X in (X1, X2, X3)]
    # term c is one matmul with _TR_SLOTS[c]; its axes come out as slot c
    # first, then the other two, and are moved back to (x, y, z)
    t1, t2, t3 = (exact_matmul(a.swapaxes(-1, -2), T, bound)
                  .reshape(a.shape[:-1] + (8, 8))
                  for a, T in zip(A, _TR_SLOTS))
    total = t1 + t2.swapaxes(-3, -2) + np.moveaxis(t3, -3, -1)
    return total.any(axis=(-3, -2, -1))


def verify_triality_triple(X1: Bivector, X2: Bivector, X3: Bivector) -> bool:
    """True iff (X1 x, y, z) + (x, X2 y, z) + (x, y, X3 z) = 0 for all 8^3
    octonion basis triples and every batch element (triality_defects)."""
    return not triality_defects(X1, X2, X3).any()


def _mult_triple_table() -> np.ndarray:
    """(64, 3 * 64) table whose row 8 i + j holds the action matrices of
    the triple of (b_i, b_j) in mult_triples: 2 b_i ^ b_j, which acts by
    x -> 2 (b_i, x) b_j - 2 (b_j, x) b_i, then l_{b_i*} l_{b_j} -
    l_{b_j*} l_{b_i} and the same with r, where b_i* = -b_{_CONJ_PERM[i]}.
    The triple is bilinear in (u, v), so the table determines it."""
    L = _MUL.transpose(0, 2, 1)       # L[i][k, j]: o -> b_i o
    R = _MUL.transpose(1, 2, 0)       # R[j][k, i]: o -> o b_j
    p = list(_CONJ_PERM)
    out = np.zeros((8, 8, 3, 8, 8), dtype=np.int64)
    i = np.arange(8)
    out[i[:, None], i, 0, i, 7 - i[:, None]] += 2
    out[i[:, None], i, 0, i[:, None], 7 - i] -= 2
    for c, M in ((1, L), (2, R)):
        out[:, :, c] = (np.einsum("jab,ibc->ijac", M[p], M)
                        - np.einsum("iab,jbc->ijac", M[p], M))
    return out.reshape(64, 3 * 64)


# In float64, as the right operand of exact_matmul.
_TRIPLE = _mult_triple_table().astype(np.float64)


def mult_triples(u, v, den: int = 1):
    """The triality triples (2 u^v, l_{u*}l_v - l_{v*}l_u,
    r_{u*}r_v - r_{v*}r_u) / den of octonion batches u, v (int64 b-coordinate
    arrays), three Bivectors over the broadcast batch shape: one contraction
    of the outer products with _TRIPLE.  Each component is checked skew
    (skew_bivector)."""
    uv = _outer(u, v)
    A = (exact_matmul(uv, _TRIPLE, 64 * amax(_TRIPLE) * amax(u) * amax(v))
         .astype(np.int64).reshape(uv.shape[:-1] + (3, 8, 8)))
    return tuple(skew_bivector(A[..., c, :, :], den) for c in range(3))


def prop_mult_triple(u: Octonion, v: Octonion):
    """The triality triple (2 u^v, l_{u*}l_v - l_{v*}l_u,
    r_{u*}r_v - r_{v*}r_u) (scaled by 2 from the 1/2-normalized one), for
    rational u, v: mult_triples over the product of their denominators;
    raises ValueError on a coordinate that is not rational."""
    (un, du), (vn, dv) = int_parts(to_vector8(u)), int_parts(to_vector8(v))
    return mult_triples(un, vn, du * dv)


# The six standard triples are Phi images of basis elements, so rows of
# _PHI: (eps1 ^ e_j, e_{j+1}* ^ e_{j-1}*, -eps2 ^ e_j) is Phi of
# v_j (x) (e_1, e_2, e_3), and (eps1 ^ e_j*, -eps2 ^ e_j*, e_{j+1} ^ e_{j-1})
# is Phi of delta_j (x) (e_3, e_1, e_2); one row of indices per triple.
_STANDARD_ROWS = np.array([[10, 11, 12], [21, 19, 20], [13, 14, 15],
                           [24, 22, 23], [16, 17, 18], [27, 25, 26]])


def standard_triple_batch():
    """The six standard triples as three Bivector batches, one each for
    X1, X2 and X3."""
    return tuple(Bivector(_PHI[_STANDARD_ROWS[:, c]]) for c in range(3))


def standard_triples():
    """The six standard triality triples, as a list of (X1, X2, X3)."""
    batch = standard_triple_batch()
    return [tuple(X[t] for X in batch) for t in range(6)]


# --- S3 actions ---------------------------------------------------------------

def _perm_tuple(p):
    p = tuple(p)
    if sorted(p) != [1, 2, 3]:
        raise ValueError("permutation must be a rearrangement of (1,2,3)")
    return p


def perm_apply(p, z):
    """(sigma z)_i = z_{sigma^{-1}(i)} for p[i-1] = sigma(i)."""
    p = _perm_tuple(p)
    out = [None] * 3
    for i in range(3):
        out[p[i] - 1] = z[i]
    return tuple(out)


# --- Bhargava cubes -----------------------------------------------------------

@dataclass(frozen=True)
class BhargavaCube:
    alpha: int
    beta: Tuple[int, int, int]
    gamma: Tuple[int, int, int]
    delta: int

    @staticmethod
    def make(alpha, beta, gamma, delta) -> "BhargavaCube":
        return BhargavaCube(int(alpha), tuple(int(b) for b in beta),
                            tuple(int(g) for g in gamma), int(delta))


def s3_act_cube(p, wc: BhargavaCube) -> BhargavaCube:
    """The S3 action transported through phi_iso and the character pairing
    <w, w'> = (T1, y1') + (T2, y2'); it comes out as the plain permutation of
    the beta and gamma coordinates (alpha, delta fixed)."""
    p = _perm_tuple(p)
    return BhargavaCube(wc.alpha, perm_apply(p, wc.beta),
                        perm_apply(p, wc.gamma), wc.delta)
