"""The cubic-norm-structure Lie algebra g_E for E = F x F x F, the explicit
isomorphism Phi: g_E -> wedge^2 O onto the octonionic so(8), triality-triple
verification, the S3 action, and the induced S3 action on integer cubes
(alpha, beta, gamma, delta) indexing Heisenberg characters.

Conventions:
  * g_E = (sl_3 + E^0) + V_3 (x) E + V_3^dual (x) E^dual.
  * E^0 elements are stored as u = (u1,u2,u3) with u1+u2+u3 = 0, meaning the
    operator Psi_{2u} ("multiplication by 2u" on E, by -2u on E^dual).
  * The wedge identifications v_i ^ v_j = delta_k and delta_i ^ delta_j = v_k
    for (i,j,k) cyclic.
  * Permutations sigma act on E-coordinates by (sigma z)_i = z_{sigma^{-1}(i)};
    sigma is given as a tuple p of length 3 with p[i-1] = sigma(i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .octonion import (Octonion, oct_mul, conj as oct_conj, trace as oct_trace,
                       to_vector8, BASIS, EPS1, E1, E2, E3, E1S, E2S, E3S, EPS2)
from .quadspace import (Bivector, GaussRational, GZERO, biv_sparse, bracket,
                        wedge, gvec, matrix_to_bivector, DIM)

F0 = Fraction(0)
F1 = Fraction(1)


# --- cubic norm structure E = F^3 --------------------------------------------

@dataclass(frozen=True)
class CubicE:
    z1: Fraction
    z2: Fraction
    z3: Fraction

    @staticmethod
    def make(z1=0, z2=0, z3=0) -> "CubicE":
        return CubicE(Fraction(z1), Fraction(z2), Fraction(z3))

    def coords(self):
        return (self.z1, self.z2, self.z3)

    def norm(self):
        return self.z1 * self.z2 * self.z3

    def sharp(self) -> "CubicE":
        return CubicE(self.z2 * self.z3, self.z3 * self.z1, self.z1 * self.z2)


def cubic_cross(z: CubicE, w: CubicE) -> CubicE:
    """z x w = (z+w)# - z# - w#."""
    return CubicE(z.z2 * w.z3 + z.z3 * w.z2,
                  z.z3 * w.z1 + z.z1 * w.z3,
                  z.z1 * w.z2 + z.z2 * w.z1)


def _cross3(x: Tuple, y: Tuple) -> Tuple:
    return (x[1] * y[2] + x[2] * y[1],
            x[2] * y[0] + x[0] * y[2],
            x[0] * y[1] + x[1] * y[0])


def _dot3(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


# --- the Lie algebra g_E ------------------------------------------------------

def _zero3x3():
    return ((F0,) * 3,) * 3


def _t3(rows):
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


@dataclass(frozen=True)
class GEElement:
    """sl3: traceless 3x3; e0: u with Psi_{2u} meaning (coords sum to 0);
    vE[j][m]: coefficient of v_{j+1} (x) (E-basis m+1);
    dE[j][m]: coefficient of delta_{j+1} (x) (E-dual-basis m+1)."""
    sl3: Tuple[Tuple[Fraction, ...], ...]
    e0: Tuple[Fraction, Fraction, Fraction]
    vE: Tuple[Tuple[Fraction, ...], ...]
    dE: Tuple[Tuple[Fraction, ...], ...]

    @staticmethod
    def make(sl3=None, e0=(0, 0, 0), vE=None, dE=None) -> "GEElement":
        sl3 = _t3(sl3) if sl3 is not None else _zero3x3()
        vE = _t3(vE) if vE is not None else _zero3x3()
        dE = _t3(dE) if dE is not None else _zero3x3()
        e0 = tuple(Fraction(c) for c in e0)
        if sum(sl3[i][i] for i in range(3)) != 0:
            raise ValueError("sl3 part must be traceless")
        if sum(e0) != 0:
            raise ValueError("E^0 part must have coordinates summing to 0")
        return GEElement(sl3, e0, vE, dE)

    def __add__(self, other: "GEElement") -> "GEElement":
        add3 = lambda A, B: tuple(tuple(a + b for a, b in zip(ra, rb))
                                  for ra, rb in zip(A, B))
        return GEElement(add3(self.sl3, other.sl3),
                         tuple(a + b for a, b in zip(self.e0, other.e0)),
                         add3(self.vE, other.vE), add3(self.dE, other.dE))

    def __sub__(self, other: "GEElement") -> "GEElement":
        return self + other.scale(-1)

    def __neg__(self) -> "GEElement":
        return self.scale(-1)

    def scale(self, c) -> "GEElement":
        c = Fraction(c)
        s3 = lambda A: tuple(tuple(c * a for a in row) for row in A)
        return GEElement(s3(self.sl3), tuple(c * a for a in self.e0),
                         s3(self.vE), s3(self.dE))

    def is_zero(self) -> bool:
        return (not any(any(row) for row in self.sl3) and not any(self.e0)
                and not any(any(row) for row in self.vE)
                and not any(any(row) for row in self.dE))


def ge_basis():
    """Ordered 28-element basis of g_E: 6 off-diagonal E_{jk}, 2 diagonal
    Cartan elements, 2 E^0, 9 v_j(x)e_m, 9 delta_j(x)e_m."""
    out = []
    for j in range(3):
        for k in range(3):
            if j != k:
                m = [[F0] * 3 for _ in range(3)]
                m[j][k] = F1
                out.append(GEElement.make(sl3=m))
    out.append(GEElement.make(sl3=[[1, 0, 0], [0, -1, 0], [0, 0, 0]]))
    out.append(GEElement.make(sl3=[[0, 0, 0], [0, 1, 0], [0, 0, -1]]))
    out.append(GEElement.make(e0=(1, -1, 0)))
    out.append(GEElement.make(e0=(0, 1, -1)))
    for j in range(3):
        for m in range(3):
            M = [[F0] * 3 for _ in range(3)]
            M[j][m] = F1
            out.append(GEElement.make(vE=M))
    for j in range(3):
        for m in range(3):
            M = [[F0] * 3 for _ in range(3)]
            M[j][m] = F1
            out.append(GEElement.make(dE=M))
    return out


def ge_bracket(A: GEElement, B: GEElement) -> GEElement:
    """Lie bracket on g_E (all five structural cases)."""
    sl3 = [[F0] * 3 for _ in range(3)]
    e0 = [F0, F0, F0]
    vE = [[F0] * 3 for _ in range(3)]
    dE = [[F0] * 3 for _ in range(3)]

    # [sl3, sl3]: matrix commutator.
    for i in range(3):
        for j in range(3):
            sl3[i][j] += sum(A.sl3[i][k] * B.sl3[k][j]
                             - B.sl3[i][k] * A.sl3[k][j] for k in range(3))

    # [sl3, v (x) x] = (phi v) (x) x ; [sl3, delta (x) gamma] uses -phi^t.
    def sl3_on(phi, v_rows, d_rows, sign):
        for j in range(3):
            for i in range(3):
                c = phi[i][j]
                if c:
                    for m in range(3):
                        vE[i][m] += sign * c * v_rows[j][m]
        for j in range(3):
            for k in range(3):
                c = phi[j][k]
                if c:
                    for m in range(3):
                        dE[k][m] -= sign * c * d_rows[j][m]

    sl3_on(A.sl3, B.vE, B.dE, F1)
    sl3_on(B.sl3, A.vE, A.dE, -F1)

    # [Psi_{2u}, v (x) x] = v (x) 2ux ; [Psi_{2u}, delta (x) g] = delta (x) -2ug.
    def e0_on(u, v_rows, d_rows, sign):
        for j in range(3):
            for m in range(3):
                vE[j][m] += sign * 2 * u[m] * v_rows[j][m]
                dE[j][m] -= sign * 2 * u[m] * d_rows[j][m]

    e0_on(A.e0, B.vE, B.dE, F1)
    e0_on(B.e0, A.vE, A.dE, -F1)

    # [v_i (x) x, v_j (x) x'] = (v_i ^ v_j) (x) (x x x'), v_i ^ v_j = delta_k.
    def vv(av, bv, sign):
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                k = 3 - i - j
                # sign of (i,j,k) as permutation of (0,1,2)
                s = F1 if (j - i) % 3 == 1 else -F1
                cr = _cross3(av[i], bv[j])
                for m in range(3):
                    dE[k][m] += sign * s * cr[m]

    vv(A.vE, B.vE, Fraction(1, 2))
    vv(B.vE, A.vE, Fraction(-1, 2))

    # [delta_i (x) g, delta_j (x) g'] = (delta_i ^ delta_j) (x) (g x g') = v_k.
    def dd(ad, bd, sign):
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                k = 3 - i - j
                s = F1 if (j - i) % 3 == 1 else -F1
                cr = _cross3(ad[i], bd[j])
                for m in range(3):
                    vE[k][m] += sign * s * cr[m]

    dd(A.dE, B.dE, Fraction(1, 2))
    dd(B.dE, A.dE, Fraction(-1, 2))

    # [delta_j (x) g, v_k (x) x] = (g,x)(E_{kj} - delta_{jk} 1/3) + delta_{jk}
    #   Psi_{2u}, u = x g - (1/3)(x,g) 1_E.
    def dv(gam_rows, x_rows, sign):
        for j in range(3):
            g = gam_rows[j]
            if not any(g):
                continue
            for k in range(3):
                x = x_rows[k]
                if not any(x):
                    continue
                p = _dot3(g, x)
                sl3[k][j] += sign * p
                if j == k:
                    third = p / 3
                    for t in range(3):
                        sl3[t][t] -= sign * third
                        e0[t] += sign * (x[t] * g[t] - third)

    dv(A.dE, B.vE, F1)
    dv(B.dE, A.vE, -F1)

    return GEElement(tuple(tuple(r) for r in sl3), tuple(e0),
                     tuple(tuple(r) for r in vE), tuple(tuple(r) for r in dE))


# --- the isomorphism Phi ------------------------------------------------------

_V8 = {name: gvec(to_vector8(o)) for name, o in BASIS.items()}


def _w(a: str, b: str) -> Bivector:
    return wedge(_V8[a], _V8[b])


def _e(j: int) -> str:          # 1-based
    return f"e{j}"


def _es(j: int) -> str:
    return f"e{j}*"


def _cyc(j: int) -> Tuple[int, int]:
    """(j+1, j-1) cyclically in {1,2,3}."""
    return (j % 3 + 1, (j + 1) % 3 + 1)


def _phi_vj(j: int, x) -> Bivector:
    jp, jm = _cyc(j)
    out = Bivector.zero()
    if x[0]:
        out = out + _w("eps1", _e(j)).scale(x[0])
    if x[1]:
        out = out + _w(_es(jp), _es(jm)).scale(x[1])
    if x[2]:
        out = out - _w("eps2", _e(j)).scale(x[2])
    return out


def _phi_dj(j: int, g) -> Bivector:
    jp, jm = _cyc(j)
    out = Bivector.zero()
    if g[0]:
        out = out - _w("eps2", _es(j)).scale(g[0])
    if g[1]:
        out = out + _w(_e(jp), _e(jm)).scale(g[1])
    if g[2]:
        out = out + _w("eps1", _es(j)).scale(g[2])
    return out


def _phi_ejk(j: int, k: int) -> Bivector:   # 1-based, j != k
    return _w(_es(k), _e(j))


# Images of the diagonal Cartan h_j = E_{jj} - E_{j+1,j+1}, defined through
# the bracket so that Phi is automatically consistent on the Cartan:
# h_j = [E_{j,j+1}, E_{j+1,j}].
_PHI_H = [bracket(_phi_ejk(1, 2), _phi_ejk(2, 1)),
          bracket(_phi_ejk(2, 3), _phi_ejk(3, 2))]


def phi_iso(X: GEElement) -> Bivector:
    out = Bivector.zero()
    for j in range(3):
        for k in range(3):
            if j != k and X.sl3[j][k]:
                out = out + _phi_ejk(j + 1, k + 1).scale(X.sl3[j][k])
    d1, d2, d3 = (X.sl3[i][i] for i in range(3))
    if d1:
        out = out + _PHI_H[0].scale(d1)
    if d1 + d2:
        out = out + _PHI_H[1].scale(d1 + d2)
    u = X.e0
    if any(u):
        out = out + _w("eps1", "eps2").scale(u[0] - u[2])
        if u[1]:
            s = (_w("e1", "e1*") + _w("e2", "e2*") + _w("e3", "e3*"))
            out = out + s.scale(u[1])
    for j in range(3):
        if any(X.vE[j]):
            out = out + _phi_vj(j + 1, X.vE[j])
        if any(X.dE[j]):
            out = out + _phi_dj(j + 1, X.dE[j])
    return out


# Matrix of phi_iso over the 28-dim bases (columns = images of ge_basis),
# and its inverse, built lazily.
_GE_BASIS = None
_PHI_INV_MAT = None


def _fraction_of(g: GaussRational) -> Fraction:
    if g.im != 0:
        raise ValueError("unexpected imaginary part in phi image")
    return g.re


def _phi_matrices():
    global _GE_BASIS, _PHI_INV_MAT
    if _PHI_INV_MAT is None:
        _GE_BASIS = ge_basis()
        cols = [phi_iso(b) for b in _GE_BASIS]
        M = [[_fraction_of(cols[c].coeffs[r]) for c in range(28)]
             for r in range(28)]
        _PHI_INV_MAT = _invert_fraction_matrix(M)
    return _GE_BASIS, _PHI_INV_MAT


def _invert_fraction_matrix(M):
    n = len(M)
    A = [list(row) + [F1 if i == j else F0 for j in range(n)]
         for i, row in enumerate(M)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        inv = 1 / A[c][c]
        A[c] = [e * inv for e in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [e - f * g for e, g in zip(A[r], A[c])]
    return [row[n:] for row in A]


def phi_inv(Y: Bivector) -> GEElement:
    """Exact inverse of phi_iso (only defined for real-rational bivectors)."""
    basis, inv = _phi_matrices()
    y = [_fraction_of(c) for c in Y.coeffs]
    out = GEElement.make()
    for r in range(28):
        c = sum(inv[r][k] * y[k] for k in range(28))
        if c:
            out = out + basis[r].scale(c)
    return out


# --- triality triples ---------------------------------------------------------

_OCT_BASIS_LIST = (E1, E3S, EPS2, E2S, E2, -EPS1, E3, E1S)
# trilinear-form tensor TR[i][j][k] = tr(o_i (o_j o_k)) over the b-basis.
_TR = tuple(tuple(tuple(oct_trace(oct_mul(a, oct_mul(b, c)))
                        for c in _OCT_BASIS_LIST)
                  for b in _OCT_BASIS_LIST)
            for a in _OCT_BASIS_LIST)


_TR_ARRAY = None


def _tr_array():
    global _TR_ARRAY
    if _TR_ARRAY is None:
        import numpy as np
        _TR_ARRAY = np.array([[[int(t) for t in row] for row in plane]
                              for plane in _TR], dtype=np.int64)
    return _TR_ARRAY


def _int_matrix_parts(X: Bivector):
    """(re, im) int64 action matrices of X when every entry is a Gaussian
    integer small enough for exact int64 contraction, else None."""
    import numpy as np
    re = np.zeros((DIM, DIM), dtype=np.int64)
    im = np.zeros((DIM, DIM), dtype=np.int64)
    for (r, c), a in biv_sparse(X).items():
        if a.re.denominator != 1 or a.im.denominator != 1:
            return None
        if max(abs(a.re.numerator), abs(a.im.numerator)) > 2 ** 40:
            return None
        re[r][c] = a.re.numerator
        im[r][c] = a.im.numerator
    return re, im


def verify_triality_triple(X1: Bivector, X2: Bivector, X3: Bivector) -> bool:
    """True iff (X1 x, y, z) + (x, X2 y, z) + (x, y, X3 z) = 0 for all 8^3
    octonion basis triples, exactly."""
    parts = [_int_matrix_parts(X) for X in (X1, X2, X3)]
    if all(p is not None for p in parts):
        # Gaussian-integer entries: the contraction stays exact in int64
        # (|entries| <= 2^40, |TR| <= 4, eight summands).
        import numpy as np
        T = _tr_array()
        for comp in (0, 1):
            total = (np.einsum("mx,myz->xyz", parts[0][comp], T)
                     + np.einsum("my,xmz->xyz", parts[1][comp], T)
                     + np.einsum("mz,xym->xyz", parts[2][comp], T))
            if total.any():
                return False
        return True
    cols = []
    for X in (X1, X2, X3):
        by_col = [[] for _ in range(DIM)]
        for (m, c), a in biv_sparse(X).items():
            by_col[c].append((m, a))
        cols.append(by_col)
    for x in range(DIM):
        for y in range(DIM):
            for z in range(DIM):
                s = GZERO
                for m, a in cols[0][x]:
                    t = _TR[m][y][z]
                    if t:
                        s = s + a * t
                for m, a in cols[1][y]:
                    t = _TR[x][m][z]
                    if t:
                        s = s + a * t
                for m, a in cols[2][z]:
                    t = _TR[x][y][m]
                    if t:
                        s = s + a * t
                if s:
                    return False
    return True


def left_mult_bivector(u: Octonion, v: Octonion, side: str) -> Bivector:
    """The operator l_{u*} l_v - l_{v*} l_u (side='l') or
    r_{u*} r_v - r_{v*} r_u (side='r') as a bivector (twice the usual
    normalization 1/2(...) to stay integral for integral u, v)."""
    us, vs = oct_conj(u), oct_conj(v)
    cols = []
    for o in _OCT_BASIS_LIST:
        if side == "l":
            w = oct_mul(us, oct_mul(v, o)) - oct_mul(vs, oct_mul(u, o))
        else:
            w = oct_mul(oct_mul(o, v), us) - oct_mul(oct_mul(o, u), vs)
        cols.append(to_vector8(w))
    A = [[cols[c][r] for c in range(DIM)] for r in range(DIM)]
    return matrix_to_bivector(A)


def prop_mult_triple(u: Octonion, v: Octonion):
    """The triality triple (2 u^v, l_{u*}l_v - l_{v*}l_u,
    r_{u*}r_v - r_{v*}r_u) (scaled by 2 from the 1/2-normalized one)."""
    X1 = wedge(gvec(to_vector8(u)), gvec(to_vector8(v))).scale(2)
    return X1, left_mult_bivector(u, v, "l"), left_mult_bivector(u, v, "r")


def standard_triples():
    """The six explicit basis triality triples:
    (eps1 ^ e_j, e_{j+1}* ^ e_{j-1}*, -eps2 ^ e_j) and
    (eps1 ^ e_j*, -eps2 ^ e_j*, e_{j+1} ^ e_{j-1}) for j in {1,2,3}."""
    out = []
    for j in (1, 2, 3):
        jp, jm = _cyc(j)
        out.append((_w("eps1", _e(j)), _w(_es(jp), _es(jm)),
                    _w("eps2", _e(j)).scale(-1)))
        out.append((_w("eps1", _es(j)), _w("eps2", _es(j)).scale(-1),
                    _w(_e(jp), _e(jm))))
    return out


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


def s3_act_ge(p, X: GEElement) -> GEElement:
    """S3 acting on g_E through its action on the E-coordinates; sl3 fixed."""
    p = _perm_tuple(p)
    return GEElement(X.sl3, perm_apply(p, X.e0),
                     tuple(perm_apply(p, row) for row in X.vE),
                     tuple(perm_apply(p, row) for row in X.dE))


def s3_act_biv(p, X: Bivector) -> Bivector:
    """The S3 action transported to wedge^2 O through phi_iso."""
    return phi_iso(s3_act_ge(p, phi_inv(X)))


def conj_twist(X: Bivector) -> Bivector:
    """Ad(c) X where c is octonionic conjugation (an isometry of the form):
    as matrices, c act(X) c."""
    C = oct_conj_matrix()
    A = biv_sparse(X)
    out = [[GZERO] * DIM for _ in range(DIM)]
    for (r, k), a in A.items():
        for i in range(DIM):
            if C[i][r]:
                for j in range(DIM):
                    if C[k][j]:
                        out[i][j] = out[i][j] + a * (C[i][r] * C[k][j])
    return matrix_to_bivector(out)


def s3_act_triple(p, triple):
    """Image of a triality triple under the transported S3 action: each
    component moves by s3_act_biv, with the conjugation twist for odd
    permutations.  Sends triality triples to triality triples (up to the
    automatic cyclic-rotation invariance)."""
    p = _perm_tuple(p)
    even = p in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    imgs = tuple(s3_act_biv(p, X) for X in triple)
    if even:
        return imgs
    return tuple(conj_twist(X) for X in imgs)


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


def pair_to_cube(T1, T2) -> BhargavaCube:
    """Inverse of cube_to_pair.  T1, T2 are 2x2 integer matrices under the
    identification m11 b3 - m21 b4 + m12 b-4 + m22 b-3 <-> [[m11,m12],
    [m21,m22]]:
        T1 = gamma1 b3 - beta2 b4 + delta b-4 + gamma3 b-3,
        T2 = -beta3 b3 + alpha b4 - gamma2 b-4 - beta1 b-3."""
    (p, q), (r, s) = T1
    (t, u), (w, z) = T2
    return BhargavaCube.make(-w, (-z, r, -t), (p, -u, s), q)


def cube_to_pair(wc: BhargavaCube):
    a, b, g, d = wc.alpha, wc.beta, wc.gamma, wc.delta
    T1 = ((g[0], d), (b[1], g[2]))
    T2 = ((-b[2], -g[1]), (-a, -b[0]))
    return T1, T2


def s3_act_cube(p, wc: BhargavaCube) -> BhargavaCube:
    """The S3 action transported through phi_iso and the character pairing
    <w, w'> = (T1, y1') + (T2, y2'); it comes out as the plain permutation of
    the beta and gamma coordinates (alpha, delta fixed)."""
    p = _perm_tuple(p)
    return BhargavaCube(wc.alpha, perm_apply(p, wc.beta),
                        perm_apply(p, wc.gamma), wc.delta)


def cube_pairing(w1: BhargavaCube, w2: BhargavaCube) -> int:
    """<w, w'> = (T1, y1') + (T2, y2') = alpha d' - delta a'
    + sum_i (gamma_i b'_i - beta_i g'_i)."""
    s = w1.alpha * w2.delta - w1.delta * w2.alpha
    for i in range(3):
        s += w1.gamma[i] * w2.beta[i] - w1.beta[i] * w2.gamma[i]
    return s


# --- Cartan involution on g_E -------------------------------------------------

def ge_cartan(X: GEElement) -> GEElement:
    """Theta: -transpose on sl3, -1 on E^0, swap of the V3(x)E and
    V3^dual (x) E^dual parts (iota is the coordinate identity)."""
    sl3 = tuple(tuple(-X.sl3[j][i] for j in range(3)) for i in range(3))
    return GEElement(sl3, tuple(-c for c in X.e0), X.dE, X.vE)


def oct_conj_matrix():
    """Octonionic conjugation as an 8x8 rational matrix in the b-basis."""
    cols = [to_vector8(oct_conj(o)) for o in _OCT_BASIS_LIST]
    return [[cols[c][r] for c in range(DIM)] for r in range(DIM)]
