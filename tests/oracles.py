"""Reference implementations kept as test oracles.

For the exact algebra layer: the Fraction g_E bracket on (sl3, e0, vE, dE)
fields, the wedge of its V3 (x) E parts as one contraction of outer
products with an integer table (the reference of the package's shifted
products), the sparse bracket on 28 bivector coefficients, Phi and
the six standard triality triples built from wedges of the octonion
basis, the Gauss-Jordan inverse over Fraction, and the exact su(2)
projection pr_K with its symmetric powers, onto the complex su(2) triple
(e+, h+, f+) built from its definition as sparse Gaussian-rational
coefficients.  They share no code with the integer-array implementations
they check beyond the scalar type and the b-basis coordinates of the
octonions.  Beside them, helpers that only tests use: the unit vectors,
pairing and quadratic form of V over the Gaussian rationals, a bivector's
action on a vector, the su(2) triple commuting with (e+, h+, f+), the S3
action on g_E, on so(8) through Phi
(with the conjugation twist for odd permutations) and on triality triples,
and the pairing of integer cubes that the cube action preserves.

For the cosets: the product and the sum of 2x2 integer matrices, to
compare coset representatives, the pair action lam . g built from
scaled and added matrices, the reference of its entry formula, and
lam . r^{-1} as the pair action of the adjugate of r divided by det r,
the reference of divisor_cosets' closed form, and the reduced triple of a
semidefinite form read from its successive minima over a box of vectors,
the reference of reduce_gram's reduction steps.

For the orbit layer: the factor isometries of the split lattice built by
pushing the unit vectors through an (x, y) action (split_xy and join_xy
pass between a vector and its x, y parts) and checked by the
LatticeIsometry constructor, with A^{-t} from the Fraction inverse; and
the random isometry as a product of six factor isometries, each composed
into a dense running product, the reference of the package's one running
matrix.

For the lifts: the theta* coefficient and the Spezialschar membership
check summed over divisor_cosets, building every pair mu = lambda.r^{-1}
and taking its Gram triple, where the package reads S(mu) from
divisor_grams; the theta* key family closed over divisor_cosets, where
the package gives a closure key its one coset without enumerating; and
the Dirichlet factorization check as three passes over
the orbit lambda.g (the series D_phi, the primitive series convolved with
sigma_1, and the divisibility test), where the package makes one; and the
Fourier-Jacobi extraction by comparing each key with the fj_pair of three
of its entries, where the command tests the other five.

For the table files: the per-entry parser, each key through isinstance
checks and each value string parsed again wherever it occurs, as the
one-pass loader's reference; and the JSON object a written table file
holds, each entry built as a dict with json.dumps's key and Fraction's
value strings, as the line writer's reference.

For the numeric layer: 2x2 matrices as vectors of the (2,2) block (det
becomes the quadratic form); rotations and boosts in the plane of a
J-orthonormal pair, the reference of boost_u's closed form; the Whittaker
integral by scipy's quad_vec with one whittaker_eval (beta by matrix
products) per node over the whole line [-smax, smax], unfolded, and by the
adaptive Gauss-Kronrod rule run on one folded integral alone from its
dyadic mesh (built by halving smax), the reference of the package's
lockstep run; the Poincare
summand of one pair; the symmetric powers as an out-of-place convolution,
the reference of the in-place kernel; and the Poincare sum by testing
every pair of vectors from the (2r+1)^8 box, sharing only the key packing
and the symmetric-power step with q_poincare's fold split.
Also three exact helpers that no command uses: the S_v sum as a reduced
Gaussian rational (s_v_sum takes the float of each part straight from
the unreduced integers), an alternating binomial sum and the index-1
Jacobi form's coefficients."""

import json
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, floor, isqrt, log2, prod

import numpy as np
from scipy import integrate

from octolift.cli import KINDS, TableError, _parse_int
from octolift.coset import (GramTriple, breve, divisor_cosets, divisor_grams,
                            divisors, gram, hnf_right_cosets,
                            is_strongly_primitive, mat2, mat2_det,
                            mat2_scale, pair_act, reduce_gram)
from octolift.lifts import (HalfIntegralTable, QuatTable, Report,
                            SiegelTable, a_prim, fj_pair, reduced_triples)
from octolift.octonion import BASIS, to_vector8
from octolift.orbits import (LatticeIsometry, levi_isometry,
                             opposite_unipotent, siegel_unipotent,
                             swap_isometry)
from octolift.quadspace import (DIM, PAIRS, Bivector, amax, fits,
                                int_parts, skew_coords)
from octolift.scalar import GZERO, GaussRational, _coerce
from octolift.triality import (_CONJ_PERM, GEElement, _coords, _fields,
                               _perm_tuple)
from octolift import triality
from octolift import whittaker
from octolift.whittaker import (GK_NODES, LeviPoint, PoincareSum, Y0, Y1,
                                _G7_W, _GK_EPSABS, _GK_EPSREL, _GK_W, _GK_X,
                                _PRK2, _key_bases, _prk_coeffs, _s_v_horner,
                                _folded_rows, _sym_powers, _unfold,
                                pairing22, whittaker_eval)

F0, F1 = Fraction(0), Fraction(1)
PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}


# --- V over the Gaussian rationals, and so(8) acting on it -----------------

GONE = GaussRational.make(1)


def basis_vector(i: int):
    """The i-th unit vector of V as an 8-tuple of GaussRationals."""
    return tuple(GONE if j == i else GZERO for j in range(DIM))


def pairing(u, w) -> GaussRational:
    """Polarized bilinear form: (b_i, b_{-j}) = delta_ij."""
    return sum((_coerce(a) * _coerce(w[7 - i]) for i, a in enumerate(u)),
               GZERO)


def qval(u) -> GaussRational:
    """q(u) = sum over the four hyperbolic pairs."""
    return sum((_coerce(u[i]) * _coerce(u[7 - i]) for i in range(4)), GZERO)


def biv_act(X: Bivector, w):
    """(u ^ v) . x = (u, x) v - (v, x) u, extended bilinearly, for a single
    Bivector X and an 8-tuple w of rationals, as Fractions.

    For a basis bivector b_i ^ b_j this sends x to (b_i,x) b_j - (b_j,x) b_i,
    i.e. picks up the coordinates x_{7-i} and x_{7-j}.  (This is the sign
    that makes the 28 e/eps wedge images of the cubic-structure generators a
    Lie algebra homomorphism; the opposite sign would make it an
    anti-homomorphism throughout.)
    """
    wn, dw = int_parts(w)
    fits(8 * amax(X.num) * amax(wn))
    return tuple(Fraction(int(a), X.den * dw) for a in X.num @ wn)


# --- bivectors as 28 Gaussian-rational coefficients on b_i ^ b_j, i < j ------

def coeffs_of(X):
    """The 28 coefficients of a single quadspace.Bivector, after checking
    that its whole action matrix is the one those coefficients give."""
    coeffs = tuple(GaussRational(Fraction(int(a), X.den))
                   for a in skew_coords(X.num))
    matrix = {(r, c): GaussRational(Fraction(int(X.num[r, c]), X.den))
              for r in range(DIM) for c in range(DIM) if X.num[r, c]}
    assert biv_sparse(coeffs) == matrix, "action matrix is not skew"
    return coeffs


def coeffs_from_dict(d):
    c = [GZERO] * len(PAIRS)
    for (i, j), val in d.items():
        val = _coerce(val)
        if i == j:
            continue
        if i > j:
            i, j, val = j, i, -val
        c[PAIR_INDEX[(i, j)]] = c[PAIR_INDEX[(i, j)]] + val
    return tuple(c)


def coeffs_wedge(u, w):
    d = {}
    for i in range(DIM):
        for j in range(DIM):
            if i != j and u[i] and w[j]:
                d[(i, j)] = (d.get((i, j), GZERO)
                             + _coerce(u[i]) * _coerce(w[j]))
    return coeffs_from_dict(d)


def coeffs_add(X, Y):
    return tuple(a + b for a, b in zip(X, Y))


def coeffs_scale(X, c):
    c = _coerce(c)
    return tuple(c * a for a in X)


def biv_sparse(X):
    """Sparse {(row, col): entry} action matrix: the basis bivector
    b_i ^ b_j contributes +c at (j, 7-i) and -c at (i, 7-j)."""
    A = {}
    for k, (i, j) in enumerate(PAIRS):
        c = X[k]
        if not c:
            continue
        A[(j, 7 - i)] = A.get((j, 7 - i), GZERO) + c
        A[(i, 7 - j)] = A.get((i, 7 - j), GZERO) - c
    return {k: v for k, v in A.items() if v}


def _sparse_to_coeffs(A):
    X = coeffs_from_dict({(i, j): A[(j, 7 - i)] for (i, j) in PAIRS
                          if (j, 7 - i) in A})
    if biv_sparse(X) != {k: v for k, v in A.items() if v}:
        raise ValueError("matrix is not skew with respect to the form")
    return X


def sparse_bracket(X, Y):
    """The bivector acting as the commutator, on sparse action matrices."""
    AX, AY = biv_sparse(X), biv_sparse(Y)
    C = {}
    for (r, k), a in AX.items():
        for (k2, c), b in AY.items():
            if k == k2:
                C[(r, c)] = C.get((r, c), GZERO) + a * b
    for (r, k), a in AY.items():
        for (k2, c), b in AX.items():
            if k == k2:
                C[(r, c)] = C.get((r, c), GZERO) - a * b
    return _sparse_to_coeffs({k: v for k, v in C.items() if v})


# --- g_E on Fraction fields --------------------------------------------------

def _zero3x3():
    return [[F0] * 3 for _ in range(3)]


def _frozen(sl3, e0, vE, dE):
    return (tuple(tuple(r) for r in sl3), tuple(e0),
            tuple(tuple(r) for r in vE), tuple(tuple(r) for r in dE))


def _basis_fields():
    """Fields of the 28 ge_basis elements, in its order."""
    out = []
    for j in range(3):
        for k in range(3):
            if j != k:
                m = _zero3x3()
                m[j][k] = F1
                out.append(_frozen(m, (F0,) * 3, _zero3x3(), _zero3x3()))
    for d in ((1, -1, 0), (0, 1, -1)):
        m = _zero3x3()
        for i in range(3):
            m[i][i] = Fraction(d[i])
        out.append(_frozen(m, (F0,) * 3, _zero3x3(), _zero3x3()))
    for u in ((1, -1, 0), (0, 1, -1)):
        out.append(_frozen(_zero3x3(), tuple(map(Fraction, u)), _zero3x3(),
                           _zero3x3()))
    for part in (2, 3):
        for j in range(3):
            for m in range(3):
                M = _zero3x3()
                M[j][m] = F1
                f = [_zero3x3(), (F0,) * 3, _zero3x3(), _zero3x3()]
                f[part] = M
                out.append(_frozen(*f))
    return out


BASIS_FIELDS = _basis_fields()


def fields_add(X, Y):
    add3 = lambda A, B: tuple(tuple(a + b for a, b in zip(ra, rb))
                              for ra, rb in zip(A, B))
    return (add3(X[0], Y[0]), tuple(a + b for a, b in zip(X[1], Y[1])),
            add3(X[2], Y[2]), add3(X[3], Y[3]))


def fields_scale(X, c):
    s3 = lambda A: tuple(tuple(c * a for a in row) for row in A)
    return (s3(X[0]), tuple(c * a for a in X[1]), s3(X[2]), s3(X[3]))


def fields_from_coords(coords):
    out = fields_scale(BASIS_FIELDS[0], F0)
    for c, b in zip(coords, BASIS_FIELDS):
        out = fields_add(out, fields_scale(b, c))
    return out


def fields_of(X):
    """Fraction fields of a single triality.GEElement."""
    return fields_from_coords([Fraction(int(c), X.den) for c in X.num])


def _cross3(x, y):
    return (x[1] * y[2] + x[2] * y[1],
            x[2] * y[0] + x[0] * y[2],
            x[0] * y[1] + x[1] * y[0])


def _dot3(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def ge_bracket(A, B):
    """Lie bracket on g_E fields (sl3, e0, vE, dE), all five cases."""
    A_sl3, A_e0, A_vE, A_dE = A
    B_sl3, B_e0, B_vE, B_dE = B
    sl3, e0, vE, dE = _zero3x3(), [F0, F0, F0], _zero3x3(), _zero3x3()

    for i in range(3):
        for j in range(3):
            sl3[i][j] += sum(A_sl3[i][k] * B_sl3[k][j]
                             - B_sl3[i][k] * A_sl3[k][j] for k in range(3))

    def sl3_on(phi, v_rows, d_rows, sign):
        for j in range(3):
            for i in range(3):
                for m in range(3):
                    vE[i][m] += sign * phi[i][j] * v_rows[j][m]
        for j in range(3):
            for k in range(3):
                for m in range(3):
                    dE[k][m] -= sign * phi[j][k] * d_rows[j][m]

    sl3_on(A_sl3, B_vE, B_dE, F1)
    sl3_on(B_sl3, A_vE, A_dE, -F1)

    def e0_on(u, v_rows, d_rows, sign):
        for j in range(3):
            for m in range(3):
                vE[j][m] += sign * 2 * u[m] * v_rows[j][m]
                dE[j][m] -= sign * 2 * u[m] * d_rows[j][m]

    e0_on(A_e0, B_vE, B_dE, F1)
    e0_on(B_e0, A_vE, A_dE, -F1)

    def wedge_rows(a, b, sign, out):
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                k = 3 - i - j
                s = F1 if (j - i) % 3 == 1 else -F1
                cr = _cross3(a[i], b[j])
                for m in range(3):
                    out[k][m] += sign * s * cr[m]

    wedge_rows(A_vE, B_vE, Fraction(1, 2), dE)
    wedge_rows(B_vE, A_vE, Fraction(-1, 2), dE)
    wedge_rows(A_dE, B_dE, Fraction(1, 2), vE)
    wedge_rows(B_dE, A_dE, Fraction(-1, 2), vE)

    def dv(gam_rows, x_rows, sign):
        for j in range(3):
            g = gam_rows[j]
            for k in range(3):
                x = x_rows[k]
                p = _dot3(g, x)
                sl3[k][j] += sign * p
                if j == k:
                    third = p / 3
                    for t in range(3):
                        sl3[t][t] -= sign * third
                        e0[t] += sign * (x[t] * g[t] - third)

    dv(A_dE, B_vE, F1)
    dv(B_dE, A_vE, -F1)
    return _frozen(sl3, e0, vE, dE)


# --- Phi from wedges of the octonion basis -----------------------------------

_V8 = {name: to_vector8(o) for name, o in BASIS.items()}


def _w(a, b):
    return coeffs_wedge(_V8[a], _V8[b])


def _cyc(j):
    return (j % 3 + 1, (j + 1) % 3 + 1)


_PHI_H = (sparse_bracket(_w("e2*", "e1"), _w("e1*", "e2")),
          sparse_bracket(_w("e3*", "e2"), _w("e2*", "e3")))


def phi_iso(X):
    """Phi on Fraction fields, as 28 coefficients."""
    sl3, u, vE, dE = X
    out = coeffs_scale(_w("e1", "e2"), 0)

    def acc(Y, c):
        nonlocal out
        out = coeffs_add(out, coeffs_scale(Y, c))

    for j in range(3):
        for k in range(3):
            if j != k:
                acc(_w(f"e{k + 1}*", f"e{j + 1}"), sl3[j][k])
    acc(_PHI_H[0], sl3[0][0])
    acc(_PHI_H[1], sl3[0][0] + sl3[1][1])
    acc(_w("eps1", "eps2"), u[0] - u[2])
    for i in (1, 2, 3):
        acc(_w(f"e{i}", f"e{i}*"), u[1])
    for j in (1, 2, 3):
        jp, jm = _cyc(j)
        x, g = vE[j - 1], dE[j - 1]
        acc(_w("eps1", f"e{j}"), x[0])
        acc(_w(f"e{jp}*", f"e{jm}*"), x[1])
        acc(_w("eps2", f"e{j}"), -x[2])
        acc(_w("eps2", f"e{j}*"), -g[0])
        acc(_w(f"e{jp}", f"e{jm}"), g[1])
        acc(_w("eps1", f"e{j}*"), g[2])
    return out


def standard_triples():
    """The six standard triality triples from wedges of the octonion basis,
    as 28 coefficients each: (eps1 ^ e_j, e_{j+1}* ^ e_{j-1}*, -eps2 ^ e_j)
    and (eps1 ^ e_j*, -eps2 ^ e_j*, e_{j+1} ^ e_{j-1}) for j = 1, 2, 3."""
    out = []
    for j in (1, 2, 3):
        jp, jm = _cyc(j)
        out.append((_w("eps1", f"e{j}"), _w(f"e{jp}*", f"e{jm}*"),
                    coeffs_scale(_w("eps2", f"e{j}"), -1)))
        out.append((_w("eps1", f"e{j}*"),
                    coeffs_scale(_w("eps2", f"e{j}*"), -1),
                    _w(f"e{jp}", f"e{jm}")))
    return out


def invert_fraction_matrix(M):
    """Gauss-Jordan elimination over Fraction."""
    n = len(M)
    A = [[Fraction(e) for e in row] + [F1 if i == j else F0 for j in range(n)]
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


def _real(g):
    assert g.im == 0
    return g.re


_PHI_COLS = [phi_iso(b) for b in BASIS_FIELDS]
_PHI_INV = invert_fraction_matrix(
    [[_real(_PHI_COLS[c][r]) for c in range(28)] for r in range(28)])


def phi_inv(Y):
    """Fields of Phi^{-1} of 28 real coefficients."""
    y = [_real(c) for c in Y]
    return fields_from_coords([sum(_PHI_INV[r][k] * y[k] for k in range(28))
                               for r in range(28)])


# --- the g_E wedge as one table contraction ---------------------------------

# _EPS[i, j, k] is the sign of (i, j, k) as a permutation of (0, 1, 2), else
# 0, and _SYM = |_EPS|, so that the E cross product (x x y)_m = x_{m+1}
# y_{m+2} + x_{m+2} y_{m+1} is _SYM[m, p, q] x_p y_q.
_EPS = np.zeros((3, 3, 3), dtype=np.int64)
for _i in range(3):
    _EPS[_i, (_i + 1) % 3, (_i + 2) % 3] = 1
    _EPS[_i, (_i + 2) % 3, (_i + 1) % 3] = -1
_SYM = np.abs(_EPS)
# _W3[(i, p, j, q), (k, m)] = _EPS[i, j, k] _SYM[m, p, q]
_W3 = np.einsum("ijk,mpq->ipjqkm", _EPS, _SYM).reshape(81, 9)


def wedge3_by_outer(X, Y):
    """Row k is sum_{i,j} eps_ijk X_i x Y_j, for int arrays X, Y of shape
    (..., 3, 3): one matmul of the outer products X (x) Y, over the
    broadcast batch shape, with _W3."""
    XY = X[..., :, :, None, None] * Y[..., None, None, :, :]
    shape = XY.shape[:-4]
    return (XY.reshape(shape + (81,)) @ _W3).reshape(shape + (3, 3))


# --- the S3 action on g_E, so(8), triples and cubes --------------------------

def s3_act_ge(p, X: GEElement) -> GEElement:
    """S3 acting on g_E through its action on the E-coordinates; sl3 fixed."""
    order = np.argsort(np.array(_perm_tuple(p)) - 1)   # (sigma z) = z[order]
    S, u, V, D = _fields(X.num)
    return GEElement.of(_coords(S, u[..., order], V[..., order],
                                D[..., order]), X.den)


def s3_act_biv(p, X: Bivector) -> Bivector:
    """The S3 action transported to wedge^2 O through phi_iso."""
    return triality.phi_iso(s3_act_ge(p, triality.phi_inv(X)))


def conj_twist(X: Bivector) -> Bivector:
    """Ad(c) X where c is octonionic conjugation (an isometry of the form):
    as matrices, c act(X) c, and c is minus the permutation _CONJ_PERM."""
    p = list(_CONJ_PERM)
    return Bivector(X.num[..., p, :][..., p], X.den)


def s3_act_triple(p, triple):
    """Image of a triality triple under the transported S3 action: each
    component moves by s3_act_biv, with the conjugation twist for odd
    permutations.  Sends triality triples to triality triples (up to the
    automatic cyclic-rotation invariance)."""
    p = _perm_tuple(p)
    imgs = tuple(s3_act_biv(p, X) for X in triple)
    if p in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        return imgs
    return tuple(conj_twist(X) for X in imgs)


def cube_pairing(w1, w2) -> int:
    """<w, w'> = (T1, y1') + (T2, y2') on BhargavaCubes
    = alpha delta' - delta alpha' + sum_i (gamma_i beta'_i - beta_i gamma'_i)."""
    s = w1.alpha * w2.delta - w1.delta * w2.alpha
    for i in range(3):
        s += w1.gamma[i] * w2.beta[i] - w1.beta[i] * w2.gamma[i]
    return s


# --- factor isometries of the split lattice, by their action ---------------

def split_xy(lattice, v):
    """(x, y) in natural index order: x[i-1] = coeff of b_i,
    y[i-1] = coeff of b_{-i}."""
    r = lattice.rank
    return ([v[i] for i in range(lattice.n)],
            [v[r - 1 - i] for i in range(lattice.n)])


def join_xy(lattice, x, y):
    return tuple(list(x) + [y[lattice.n - 1 - t] for t in range(lattice.n)])


def from_xy_action(lattice, act):
    """The isometry of a map (x, y) -> (x', y') in natural order: the
    images of the unit vectors are its columns, and the checked
    constructor verifies g^t J g = J and det g = +1."""
    r = lattice.rank
    cols = []
    for k in range(r):
        e = [1 if t == k else 0 for t in range(r)]
        nx, ny = act(*split_xy(lattice, e))
        cols.append(join_xy(lattice, nx, ny))
    return LatticeIsometry(lattice, [[cols[j][i] for j in range(r)]
                                     for i in range(r)])


def _int_inv_transpose(A):
    n = len(A)
    inv = invert_fraction_matrix(A)
    if any(e.denominator != 1 for row in inv for e in row):
        raise ValueError("matrix is not unimodular")
    return [[int(inv[j][i]) for j in range(n)] for i in range(n)]


def _mat_vec(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def levi_by_action(lattice, A):
    """x -> A x, y -> A^{-t} y."""
    A_inv_t = _int_inv_transpose(A)
    return from_xy_action(lattice, lambda x, y: (_mat_vec(A, x),
                                                 _mat_vec(A_inv_t, y)))


def siegel_by_action(lattice, B):
    """x -> x + B y, y -> y."""
    return from_xy_action(lattice, lambda x, y: (
        [a + b for a, b in zip(x, _mat_vec(B, y))], list(y)))


def opposite_by_action(lattice, C):
    """x -> x, y -> y + C x."""
    return from_xy_action(lattice, lambda x, y: (
        list(x), [a + b for a, b in zip(y, _mat_vec(C, x))]))


def swap_by_action(lattice, i, j):
    """x_k <-> y_k for k = i, j."""
    def act(x, y):
        nx, ny = list(x), list(y)
        for k in (i, j):
            nx[k - 1], ny[k - 1] = ny[k - 1], nx[k - 1]
        return nx, ny
    return from_xy_action(lattice, act)


def random_isometry_by_compose(lattice, rng):
    """orbits.random_isometry drawn the same way from rng, each of its six
    factors built as a LatticeIsometry and composed into the product."""
    n = lattice.n
    g = LatticeIsometry.identity(lattice)
    for _ in range(6):
        kind = rng.randrange(4)
        if kind == 0:
            A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            i, j = rng.sample(range(n), 2)
            A[i][j] = rng.randint(-2, 2)
            g = levi_isometry(lattice, A).compose(g)
        elif kind == 3:
            i, j = rng.sample(range(1, n + 1), 2)
            g = swap_isometry(lattice, i, j).compose(g)
        else:
            B = [[0] * n for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            B[i][j], B[j][i] = k, -k
            make = siegel_unipotent if kind == 1 else opposite_unipotent
            g = make(lattice, B).compose(g)
    return g


# --- the exact su(2) projection ----------------------------------------------

@dataclass(frozen=True)
class Sym2Element:
    """Element c_xx x^2 + c_xy xy + c_yy y^2 of Sym^2(V2)."""
    c_xx: GaussRational
    c_xy: GaussRational
    c_yy: GaussRational

    @staticmethod
    def make(c_xx=0, c_xy=0, c_yy=0) -> "Sym2Element":
        return Sym2Element(_coerce(c_xx), _coerce(c_xy), _coerce(c_yy))

    def __add__(self, other):
        return Sym2Element(self.c_xx + other.c_xx, self.c_xy + other.c_xy,
                           self.c_yy + other.c_yy)


def _solve3(G, rhs):
    """Solve the 3x3 Gaussian-rational system G c = rhs by Cramer's rule."""
    def det3(M):
        return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
    D = det3(G)
    out = []
    for k in range(3):
        Mk = [[rhs[r] if c == k else G[r][c] for c in range(3)]
              for r in range(3)]
        out.append(det3(Mk) / D)
    return out


def su2_triple():
    """(e+, h+, f+) of the compact construction, as 28 coefficients each:
    with u1 = (b1 + b-1)/sqrt2, u2 = (b2 + b-2)/sqrt2, v1 = (b3 + b-3)/sqrt2
    and v2 = (b4 + b-4)/sqrt2,

        e+ = 1/2 (u1 - i u2) ^ (v1 - i v2),  h+ = i (u1 ^ u2 + v1 ^ v2),
        f+ = -1/2 (u1 + i u2) ^ (v1 + i v2),

    from the coordinates of sqrt2 u1, ..., sqrt2 v2, each wedge of two of
    them contributing a factor 1/2."""
    def vec(i):                    # sqrt2 times u1, u2, v1, v2
        return tuple(GONE if j in (i, 7 - i) else GZERO for j in range(DIM))

    u1, u2, v1, v2 = map(vec, range(4))
    i = GaussRational.make(0, 1)

    def plus_i(x, y, sign):        # x + sign i y
        return tuple(a + sign * b * i for a, b in zip(x, y))

    e = coeffs_scale(coeffs_wedge(plus_i(u1, u2, -1), plus_i(v1, v2, -1)),
                     Fraction(1, 4))
    f = coeffs_scale(coeffs_wedge(plus_i(u1, u2, 1), plus_i(v1, v2, 1)),
                     Fraction(-1, 4))
    h = coeffs_scale(coeffs_add(coeffs_wedge(u1, u2), coeffs_wedge(v1, v2)),
                     i * Fraction(1, 2))
    return e, h, f


def su2_prime_triple():
    """The su(2) triple (e', h', f') that commutes with su2_triple(): its
    conjugates by the isometry v2 -> -v2 (b4 -> -b4, b-4 -> -b-4), since
    wedge commutes with isometries and fixes u1, u2, v1; the coefficient on
    b_i ^ b_j changes sign when exactly one of i, j is 3 or 4."""
    d = (1, 1, 1, -1, -1, 1, 1, 1)
    return tuple(tuple(c * (d[i] * d[j]) for c, (i, j) in zip(X, PAIRS))
                 for X in su2_triple())


def trace_form(X, Y) -> GaussRational:
    """tr(act(X) act(Y)) for 28 coefficients each, on sparse action
    matrices."""
    AX, AY = biv_sparse(X), biv_sparse(Y)
    return sum((a * AY[(k, r)] for (r, k), a in AX.items() if (k, r) in AY),
               GZERO)


_SU2_BASIS = su2_triple()
_SU2_GRAM = [[trace_form(a, b) for b in _SU2_BASIS] for a in _SU2_BASIS]


def pr_K(X) -> Sym2Element:
    """Orthogonal projection (w.r.t. the trace form) onto span{e+,h+,f+},
    written in the x^2, xy, y^2 coordinates via e+ = -x^2, h+ = 2xy,
    f+ = y^2, of a Bivector or of 28 coefficients X."""
    if isinstance(X, Bivector):
        X = coeffs_of(X)
    ce, ch, cf = _solve3(_SU2_GRAM, [trace_form(X, b) for b in _SU2_BASIS])
    return Sym2Element(-ce, ch + ch, cf)


def sym2_power(s: Sym2Element, ell: int):
    """(c_xx x^2 + c_xy xy + c_yy y^2)^ell expanded as the 2*ell+1
    coefficients of x^(ell+v) y^(ell-v), v = -ell..ell (listed v ascending)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    poly = [s.c_yy, s.c_xy, s.c_xx]
    for _ in range(ell - 1):
        new = [GZERO] * (len(poly) + 2)
        for k, c in enumerate(poly):
            new[k] = new[k] + c * s.c_yy
            new[k + 1] = new[k + 1] + c * s.c_xy
            new[k + 2] = new[k + 2] + c * s.c_xx
        poly = new
    return tuple(poly)


# --- 2x2 integer matrices ----------------------------------------------------

def mat2_mul(m, n):
    """The product of two 2x2 integer matrices as nested tuples."""
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def mat2_add(m, n):
    """The sum of two 2x2 integer matrices as nested tuples."""
    return tuple(tuple(a + b for a, b in zip(rm, rn))
                 for rm, rn in zip(m, n))


def pair_act_by_blocks(lam, g):
    """lam . g = (g11 T1 + g21 T2, g12 T1 + g22 T2) from scaled and added
    matrices, the reference of coset.pair_act's entry formula."""
    T1, T2 = lam
    return (mat2_add(mat2_scale(g[0][0], T1), mat2_scale(g[1][0], T2)),
            mat2_add(mat2_scale(g[0][1], T1), mat2_scale(g[1][1], T2)))


def apply_rinv_by_adjugate(lam, r):
    """lam . r^{-1} as pair_act(lam, adj r) divided by det r, for an r
    with lam . r^{-1} integral: the reference of divisor_cosets' closed
    form (d T1, a T2 - b T1) / det r."""
    n = mat2_det(r)
    adj = ((r[1][1], -r[0][1]), (-r[1][0], r[0][0]))
    return tuple(tuple(tuple(e // n for e in row) for row in T)
                 for T in pair_act(lam, adj))


def reduce_gram_by_minima(t, radius: int = 24) -> GramTriple:
    """The reduced triple (a, b, c), 0 <= b <= a <= c, of the positive
    semidefinite form Q = A x^2 + B xy + C y^2 of t = (A, B, C), from its
    successive minima: a is the least value of Q at a nonzero vector, c its
    least value at a vector independent of one where a is attained, and
    b = sqrt(4ac - disc) >= 0.  The minima are sought over the box
    [-radius, radius]^2.  Both are at most max(A, C), the values at (1, 0)
    and (0, 1); on a definite form, 4A Q = (2A x + B y)^2 + disc y^2 and
    the like in x bound such a vector by |x|, |y| <= sqrt(4 max(A, C)^2),
    and on a semidefinite one, A = g p^2, C = g q^2 and Q = g (px + qy)^2,
    the minimal vector (q, -p) and a vector with px + qy = 1 have entries
    at most max(|p|, |q|).  So radius 24 covers every triple with
    entries of size at most 12."""
    A, B, C = t
    box = [(x, y) for x in range(-radius, radius + 1)
           for y in range(-radius, radius + 1) if (x, y) != (0, 0)]

    def q(v):
        return A * v[0] * v[0] + B * v[0] * v[1] + C * v[1] * v[1]

    v1 = min(box, key=q)
    a = q(v1)
    c = min(q(v) for v in box if v[0] * v1[1] != v[1] * v1[0])
    b2 = 4 * a * c - (4 * A * C - B * B)
    b = isqrt(b2)
    assert b * b == b2
    return GramTriple(a, b, c)


# --- the lifts, summed over the divisor cosets' pairs ------------------------

def theta_star_by_cosets(F, lam) -> GaussRational:
    """a_{theta*(F)}(lambda) = sum over divisor cosets (r, mu) of
    |det r|^(ell-1) conj(a_F(gram(mu)))."""
    ell = F.weight
    out = GZERO
    for r, mu in divisor_cosets(lam):
        out = out + abs(mat2_det(r)) ** (ell - 1) * F.a(gram(mu)).conj()
    return out


def maass_membership_by_cosets(phi) -> Report:
    """lifts.maass_membership: one pass over the keys in table order, with
    condition (ii) summed over the pairs mu of divisor_cosets and
    a_phi^prim(mu) = a_phi(breve(gram(mu))); on a strongly primitive key,
    whose one coset is r = 1, a failure is one of condition (i)."""
    ell = phi.weight
    for lam, x in phi.entries.items():
        cosets = divisor_cosets(lam)
        rhs = GZERO
        for r, mu in cosets:
            rhs = rhs + abs(mat2_det(r)) ** (ell - 1) * phi.a(breve(gram(mu)))
        if rhs != x and len(cosets) == 1:
            return Report(False, f"condition (i) fails at gram {gram(lam)}")
        if rhs != x:
            return Report(False, f"condition (ii) fails at {lam}")
    return Report(True, f"{len(phi.entries)} keys verified")


def maass_membership_two_conditions(phi) -> bool:
    """The two Spezialschar conditions as the paper states them: (i) the
    strongly primitive keys of one gram carry one coefficient, and (ii) the
    divisor-coset sum of maass_membership_by_cosets holds on every key."""
    ell = phi.weight
    by_gram = {}
    for lam in phi.entries:
        if len(divisor_cosets(lam)) == 1:     # strongly primitive
            by_gram.setdefault(gram(lam), set()).add(phi.entries[lam])
    if any(len(values) > 1 for values in by_gram.values()):
        return False
    for lam, x in phi.entries.items():
        rhs = GZERO
        for r, mu in divisor_cosets(lam):
            rhs = rhs + abs(mat2_det(r)) ** (ell - 1) * phi.a(breve(gram(mu)))
        if rhs != x:
            return False
    return True


def spezialschar_keys_by_cosets(detbound: int, extra_pairs=()) -> list:
    """The theta* key family, sorted: for every reduced t with disc <=
    4*detbound the pairs breve(t), ([[a,0],[b,1]], [[0,-1],[c,0]]) and
    d*breve(t) while disc(d^2 t) stays within the bound, the extra pairs,
    and breve(gram(mu)) for every divisor coset (r, mu) of each of them."""
    base = []
    for t in reduced_triples(4 * detbound):
        base += [breve(t), (mat2(t.a, 0, t.b, 1), mat2(0, -1, t.c, 0))]
        d = 2
        while d ** 4 * t.disc() <= 4 * detbound:
            base.append(tuple(tuple(tuple(d * e for e in row) for row in T)
                              for T in breve(t)))
            d += 1
    base += list(extra_pairs)
    keys = set(base)
    for lam in base:
        keys |= {breve(gram(mu)) for _r, mu in divisor_cosets(lam)}
    return sorted(keys)


def fj_entries_by_pair_rule(phi) -> dict:
    """The Fourier-Jacobi coefficients that fj extracts from phi: each key
    lambda that equals fj_pair(t) for t read from three of its entries,
    (T1[0][0], T1[1][0], T2[1][0]), gives conj a_phi(lambda) at the
    reduced class of t.  The reference of the command's test on the
    eight entries."""
    out = {}
    for lam, x in phi.entries.items():
        t = GramTriple(lam[0][0][0], lam[0][1][0], lam[1][1][0])
        if lam == fj_pair(t):
            out.setdefault(reduce_gram(t), x.conj())
    return out


# --- the Dirichlet factorization as three series -----------------------------

@dataclass(frozen=True)
class DirichletPoly:
    """Truncated Dirichlet series: coefficient of n^-s for n <= bound."""
    coeffs: dict
    bound: int

    def __getitem__(self, n: int) -> GaussRational:
        return self.coeffs.get(n, GZERO)

    def convolve(self, other: "DirichletPoly") -> "DirichletPoly":
        bound = min(self.bound, other.bound)
        out = {}
        for n in range(1, bound + 1):
            s = GZERO
            for d in divisors(n):
                s = s + self[d] * other[n // d]
            if s:
                out[n] = s
        return DirichletPoly(out, bound)


def _coset_series(a, lam, ell: int, bound: int) -> DirichletPoly:
    """The series truncated at n <= bound whose n^-s coefficient is
    sum_{g right cosets, |det g| = n} a(lambda . g) / n^(ell-1)."""
    coeffs = {}
    for n in range(1, bound + 1):
        s = GZERO
        for g in hnf_right_cosets(n):
            s = s + a(pair_act(lam, g))
        if s:
            coeffs[n] = s / _coerce(n ** (ell - 1))
    return DirichletPoly(coeffs, bound)


def dirichlet_series(phi, lam, bound: int) -> DirichletPoly:
    """D_phi(T1,T2) truncated at n <= bound: the n^-s coefficient is
    sum_{g right cosets, |det g| = n} a_phi(lambda . g) / n^(ell-1)."""
    if not is_strongly_primitive(lam):
        raise ValueError("dirichlet_series needs a strongly primitive pair")
    return _coset_series(phi.a, lam, phi.weight, bound)


def _zeta_sigma_factor(bound: int) -> DirichletPoly:
    """sum_{r in GL2(Z)\\M2(Z)} |det r|^-s truncated: coefficient
    sigma_1(n)."""
    return DirichletPoly({n: _coerce(sum(divisors(n)))
                          for n in range(1, bound + 1)}, bound)


def primitive_dirichlet_series(phi, lam, bound: int) -> DirichletPoly:
    """The primitive-coefficient factor: n^-s coefficient =
    sum_{g, |det g| = n} a_phi^prim(lambda . g) / n^(ell-1)."""
    return _coset_series(lambda mu: a_prim(phi, mu), lam, phi.weight, bound)


def dirichlet_factor_check_by_series(phi, lam, bound: int) -> Report:
    """lifts.dirichlet_factor_check as three passes over the orbit: D_phi,
    the primitive series and its Dirichlet convolution with sigma_1, then
    the divisibility of n by every |det r| of lambda.g."""
    lhs = dirichlet_series(phi, lam, bound)
    rhs = _zeta_sigma_factor(bound).convolve(
        primitive_dirichlet_series(phi, lam, bound))
    for n in range(1, bound + 1):
        for g in hnf_right_cosets(n):
            for d, _t in divisor_grams(pair_act(lam, g)):
                if n % d:
                    return Report(False, "coset divisibility fails: "
                                  f"|det r|={d} does not divide n={n}, "
                                  f"g={g}")
    for n in range(1, bound + 1):
        if lhs[n] != rhs[n]:
            return Report(False, f"factorization fails at n={n}")
    return Report(True, f"verified to n={bound}")


# --- table files, one entry at a time ---------------------------------------

def _parse_mat2(x, where: str):
    if (not isinstance(x, list) or len(x) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in x)):
        raise TableError(f"{where}: expected a 2x2 integer matrix, "
                         f"got {reprlib.repr(x)}")
    return mat2(*(_parse_int(e, where) for row in x for e in row))


def _parse_value(s, where: str) -> Fraction:
    """A value string as a Fraction, read without the program's pattern:
    an optional leading minus, then one or two nonempty runs of ASCII
    digits joined by "/", the second not zero; with cli._parse_ratio's
    diagnostics."""
    if not isinstance(s, str):
        raise TableError(f"{where}: rational values must be strings, "
                         f"got {type(s).__name__}")
    shown = reprlib.repr(s)
    parts = (s[1:] if s.startswith("-") else s).split("/")
    if len(parts) > 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise TableError(f"{where}: bad rational string {shown}: expected n "
                         f"or n/d in ASCII digits, with an optional leading "
                         f"minus")
    if any(len(p) > sys.get_int_max_str_digits() for p in parts):
        raise TableError(f"{where}: {shown} has an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits, Python's "
                         f"limit for string-to-integer conversion")
    n = int(parts[0])
    d = int(parts[1]) if len(parts) == 2 else 1
    if d == 0:
        raise TableError(f"{where}: zero denominator in {shown}")
    return Fraction(-n if s.startswith("-") else n, d)


def _parse_key(kind: str, key, where: str):
    if kind == "halfintegral":
        return _parse_int(key, where)
    if kind == "siegel":
        if not isinstance(key, list) or len(key) != 3:
            raise TableError(f"{where}: expected a triple [a, b, c]")
        return GramTriple(*(_parse_int(e, where) for e in key))
    if not isinstance(key, list) or len(key) != 2:
        raise TableError(f"{where}: expected a pair of 2x2 matrices")
    return (_parse_mat2(key[0], where), _parse_mat2(key[1], where))


def parse_table_by_entry(data):
    """cli.parse_table as a loop that parses every entry on its own: each
    key through isinstance checks, each of its two value strings through
    _parse_value."""
    if not isinstance(data, dict):
        raise TableError("table file must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise TableError(f"kind must be one of {KINDS}, got {kind!r}")
    weight = _parse_int(data.get("weight"), "weight")
    raw = data.get("entries")
    if not isinstance(raw, list):
        raise TableError("entries must be a list")
    entries = {}
    for i, entry in enumerate(raw):
        where = f"entries[{i}]"
        if not isinstance(entry, dict) or "key" not in entry:
            raise TableError(f"{where}: each entry needs a 'key'")
        key = _parse_key(kind, entry["key"], where)
        if key in entries:
            raise TableError(f"{where}: duplicate key {entry['key']!r}")
        entries[key] = GaussRational(
            _parse_value(entry.get("re", "0"), where),
            _parse_value(entry.get("im", "0"), where))
    try:
        if kind == "halfintegral":
            return HalfIntegralTable(weight, entries)
        if kind == "siegel":
            return SiegelTable(weight, entries)
        return QuatTable(weight, entries)
    except ValueError as e:
        raise TableError(f"invalid table: {e}")


def serialize_table(table) -> dict:
    """The JSON object of table's file, as json.load reads it: the keys
    in sorted order, each as a JSON list, and each value part as
    str(Fraction)."""
    entries = [{"key": json.loads(json.dumps(key)), "re": str(v.re),
                "im": str(v.im)}
               for key, v in sorted(table.entries.items())]
    return {"kind": table.kind, "weight": table.weight, "entries": entries}


# --- the numeric layer -------------------------------------------------------

def mat2_to_vec22(m) -> np.ndarray:
    """The 2x2 matrix [[m11, m12], [m21, m22]] as the vector
    m11 b3 - m21 b4 + m12 b-4 + m22 b-3 of the (2,2) block; det becomes the
    quadratic form."""
    return np.array([m[0][0], -m[1][0], m[0][1], m[1][1]], dtype=float)


def plane_rotation(p1: np.ndarray, p2: np.ndarray, theta: float,
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


def archimedean_integral_quad_vec(T, t: float, u, ell: int):
    """The integral of whittaker.archimedean_integral_check over the same
    truncated line, by quad_vec: one validated LeviPoint and one
    whittaker_eval per node.  Returns (components, error estimate)."""
    T = np.asarray(T, dtype=float)

    def integrand(s):
        m = np.array([[1.0, s * t], [0.0, t]])
        return np.array(whittaker_eval(Y0, T, LeviPoint(m, u), ell).components)

    smax = (60.0 + 2.0 * ell * np.log(1.0 + ell)) / (2.0 * t) + 5.0
    res, err = integrate.quad_vec(integrand, -smax, smax, epsabs=1e-14,
                                  epsrel=1e-9)
    return res, float(err)


def gauss_kronrod_single(f, breaks, epsabs: float, epsrel: float):
    """One integral alone by whittaker._gauss_kronrod's rule and decisions,
    the reference of its lockstep run: f maps a 1-d array of points to one
    row of values per point, and the integral starts from the intervals
    between consecutive entries of the increasing breakpoints breaks;
    returns (integral, error estimate, intervals evaluated, rounds taken).
    The interval cap is read from whittaker._GK_LIMIT at each round, so a
    test can lower it."""
    breaks = np.asarray(breaks, dtype=float)
    a, b = breaks[0], breaks[-1]
    lo, hi = breaks[:-1], breaks[1:]
    total, err, evaluated, rounds = 0.0, 0.0, 0, 0
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
        rounds += 1
        tol = max(epsabs, epsrel * np.linalg.norm(total + k15.sum(axis=0)))
        if err + est.sum() <= tol:
            done = np.ones(len(lo), dtype=bool)
        else:
            done = (est <= tol * (hi - lo) / (b - a)) | (diff <= rounding)
            if (evaluated + 2 * np.count_nonzero(~done) > whittaker._GK_LIMIT
                    or not np.isfinite(est).all()):
                done[:] = True
        total = total + k15[done].sum(axis=0)
        err += float(est[done].sum())
        if done.all():
            return total, err, evaluated, rounds
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])


def dyadic_mesh(t: float, smax: float):
    """0, smax/2^K, ..., smax/2, smax with K = floor(log2(2 t smax)), at
    most whittaker._GK_LIMIT - 1: the points bisection of [0, smax]
    reaches on its way down to 0, one to two decay lengths 1/(2t) from it,
    built by halving smax K times."""
    k = min(floor(log2(2.0 * t * smax)), whittaker._GK_LIMIT - 1)
    points = [smax]
    for _ in range(k):
        points.append(points[-1] / 2.0)
    return [0.0] + points[::-1]


def archimedean_integral_single(T, t: float, u, ell: int):
    """The integral of whittaker.archimedean_integral_checks at one point
    (t, u), by gauss_kronrod_single over [0, smax] from dyadic_mesh, with
    the folded real integrand of that point alone (whittaker._folded_rows),
    its result unfolded by whittaker._unfold: (components, error estimate,
    intervals evaluated, rounds taken)."""
    w = t * pairing22(np.asarray(T, dtype=float),
                      np.asarray(u, dtype=float) @ Y1).real
    smax = (60.0 + 2.0 * ell * np.log(1.0 + ell)) / (2.0 * t) + 5.0

    def integrand(s):
        return _folded_rows(-2.0 * t * s, 2.0 - w, t ** ell * t, ell)

    res, err, intervals, rounds = gauss_kronrod_single(
        integrand, dyadic_mesh(t, smax), _GK_EPSABS, _GK_EPSREL)
    return _unfold(res, ell), err, intervals, rounds


def bvv(v1, v2, ell: int):
    """pr_K(v1 ^ v2)^ell / ||pr_K(v1 ^ v2)||^(2 ell + 1) for one pair: 2 ell
    + 1 coefficients of x^{l+v} y^{l-v}, v ascending."""
    xyz = np.einsum("i,kij,j->k", np.asarray(v1, float), _PRK2,
                    np.asarray(v2, float))
    return tuple(sym_power_batch(_prk_coeffs(xyz[None, :]), ell)[0])


def sym_power_batch(coeffs: np.ndarray, ell: int) -> np.ndarray:
    """Rows (c_xx x^2 + c_xy xy + c_yy y^2)^ell / ||.||^(2 ell + 1) for
    rows (c_xx, c_xy, c_yy) of coeffs, one power per row: whittaker's
    _sym_powers, each row divided by its norm power.  The summand of each
    group as q_poincare would build it without its orbit step."""
    poly, scale = _sym_powers(coeffs, ell)
    poly /= scale[:, None]
    return poly


def sym_power_by_convolution(coeffs: np.ndarray, ell: int) -> np.ndarray:
    """sym_power_batch as an out-of-place convolution on the
    row-major layout: each pass adds the three shifted products into a
    fresh zeroed (rows, 2 ell + 1) array."""
    c_xx, c_xy, c_yy = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    nrm = np.sqrt(np.abs(c_xx) ** 2 + np.abs(c_xy) ** 2 / 2.0
                  + np.abs(c_yy) ** 2)
    if np.any(nrm < 1e-12):
        raise ValueError("degenerate projection")
    poly = np.zeros((len(nrm), 2 * ell + 1), dtype=complex)
    poly[:, 0], poly[:, 1], poly[:, 2] = c_yy, c_xy, c_xx
    deg = 2
    for _ in range(ell - 1):
        new = np.zeros_like(poly)
        base = poly[:, :deg + 1]
        new[:, 0:deg + 1] += base * c_yy[:, None]
        new[:, 1:deg + 2] += base * c_xy[:, None]
        new[:, 2:deg + 3] += base * c_xx[:, None]
        poly = new
        deg += 2
    return poly / (nrm ** (2 * ell + 1))[:, None]


def vectors_by_norm(radius: int, values) -> dict:
    """All v in Z^8 with sup-norm <= radius, bucketed by q(v), kept only
    for q(v) in the given value set: the (2 radius + 1)^8 box, tested
    vector by vector."""
    values = set(values)
    rng = range(-radius, radius + 1)
    # split v = (first four, reversed second four); with the second half
    # stored reversed, q(v) is the plain dot product of the two halves
    halves = list(product(rng, repeat=4))
    out = {v: [] for v in values}
    for a in halves:
        for b in halves:
            qv = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
            if qv in values:
                out[qv].append(a + tuple(reversed(b)))
    return out


def q_poincare_by_pairs(A, B, T: GramTriple, ell: int,
                        radius: int) -> PoincareSum:
    """whittaker.q_poincare over explicit vectors: every pair in A x B
    (lists of v1 with q(v1) = T.a and v2 with q(v2) = T.c, sup-norms <=
    radius) is tested for the pairing T.b.  The pairs are grouped by the
    same int64 keys, each block merged into a sorted (key, pairs per
    shell) table, and summed with one symmetric power per group
    (sym_power_batch), so the result can be compared with ==."""
    bases = _key_bases(radius)
    offsets = np.array([(b - 1) // 2 for b in bases], dtype=np.int64)
    strides = np.array([prod(bases[:j]) for j in range(len(bases))],
                       dtype=np.int64)
    A = np.array(A, dtype=np.int64).reshape(-1, 8)
    B = np.array(B, dtype=np.int64).reshape(-1, 8)
    supA = np.max(np.abs(A), axis=1)
    supB = np.max(np.abs(B), axis=1)
    BJ = B[:, ::-1]               # pairing with the antidiagonal form
    keys = np.zeros(0, dtype=np.int64)               # sorted, distinct
    counts = np.zeros((0, radius), dtype=np.int64)   # pairs per key, shell
    block = 256
    for lo in range(0, len(A), block):
        Ab = A[lo:lo + block]
        i1, i2 = np.nonzero(Ab @ BJ.T == T.b)
        Bh = B[i2]
        bkeys = np.zeros(len(i1), dtype=np.int64)
        for m, off, stride in zip(_PRK2, offsets, strides):
            bkeys += (np.einsum("ij,ij->i", (Ab @ m)[i1], Bh) + off) * stride
        shell = np.maximum(supA[lo:lo + block][i1], supB[i2]) - 1
        merged, inv = np.unique(np.concatenate([keys, bkeys]),
                                return_inverse=True)
        new = np.zeros((len(merged), radius), dtype=np.int64)
        new[inv[:len(keys)]] = counts
        new += np.bincount(inv[len(keys):] * radius + shell,
                           minlength=new.size).reshape(new.shape)
        keys, counts = merged, new
    digits = keys[:, None] // strides % np.array(bases) - offsets
    terms = sym_power_batch(_prk_coeffs(digits), ell)
    return PoincareSum(tuple(counts.sum(axis=1) @ terms),
                       tuple(float(np.max(np.abs(s)))
                             for s in counts.T @ terms),
                       int(counts.sum()), len(keys))


# --- exact helpers no command uses -------------------------------------------

def s_v_exact(v: int, X: Fraction) -> GaussRational:
    """S_v(X) / (pi e^{-X}) at rational X > 0, exactly, in lowest terms:
    whittaker's Horner integers over their denominator."""
    return GaussRational.over(*_s_v_horner(v, X.numerator, X.denominator))


def alternating_binomial_sum(poly, m: int) -> Fraction:
    """sum_{k=0}^m (-1)^k C(m,k) F(k) for F given by coefficients
    [c0, c1, ...] of 1, k, k^2, ...; exact.  Zero whenever deg F < m."""
    total = Fraction(0)
    for k in range(m + 1):
        fk = sum(Fraction(c) * k ** e for e, c in enumerate(poly))
        total += (-1) ** k * comb(m, k) * fk
    return total


def jacobi_coeffs(c, nmax: int):
    """Fourier-Jacobi expansion coefficients of the index-1 Jacobi form of
    a HalfIntegralTable c: (n, r) -> c(4n - r^2) for 4n - r^2 >= 0,
    n <= nmax."""
    out = {}
    for n in range(nmax + 1):
        r = 0
        while r * r <= 4 * n:
            val = c.c(4 * n - r * r)
            out[(n, r)] = val
            if r:
                out[(n, -r)] = val
            r += 1
    return out
