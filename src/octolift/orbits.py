"""Constructive orbit reduction on the split integral lattice Z^{2n}.

Vectors are integer tuples of length 2n in the coordinate order
(b_1, ..., b_n, b_{-n}, ..., b_{-1}), so the bilinear pairing is the
antidiagonal form (u, w) = sum_k u[k] w[2n-1-k] and the quadratic form is
q(v) = sum_i x_i y_i where x_i is the b_i coefficient and y_i the b_{-i}
coefficient.  For n = 4 this matches the eight-dimensional coordinate order
used by octonion.to_vector8.

Everything is exact integer arithmetic.  Where each guarantee is checked:

- LatticeIsometry(lattice, matrix) checks g^t J g = J and det g = +1 for
  an arbitrary matrix.
- The factor constructors (levi_isometry, siegel_unipotent,
  opposite_unipotent, swap_isometry, embed_isometry) build their matrix
  from its closed block form and check only the parameters: A unimodular,
  B and C skew, two distinct swap indices, a sub-isometry whose rank fits
  the offset.  Each docstring gives the argument that these imply
  g^t J g = J and det g = +1.  Products and inverses need no check.  Each
  Levi factor gets A^{-t} from the same row operations (_rows_to_std) that
  give A, so no matrix is inverted.
- reduce_pair, the one public reduction, checks its result on every call
  before returning: that g sends the input to its target, and, once per
  call on the final product, that g^t J g = J and det g = +1.  The
  reductions it builds on (_reduce_primitive_vector,
  _reduce_isotropic_plane) check only that their g reaches its target,
  since the outer product is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul
from typing import List, Sequence, Tuple

from .coset import GramTriple

VectorZ = Tuple[int, ...]


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, p, q) with p*a + q*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_p, p = 1, 0
    old_q, q = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_p, p = p, old_p - quo * p
        old_q, q = q, old_q - quo * q
    if old_r < 0:
        old_r, old_p, old_q = -old_r, -old_p, -old_q
    return old_r, old_p, old_q


def _content(v: Sequence[int]) -> int:
    g = 0
    for e in v:
        g = gcd(g, e)
    return g


@dataclass(frozen=True)
class SplitLattice:
    """The split (hyperbolic) lattice of rank 2n, n >= 3."""
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("half-rank must be at least 3")

    @property
    def rank(self) -> int:
        return 2 * self.n

    def basis_vector(self, i: int) -> VectorZ:
        """b_i for 1 <= i <= n, b_i for -n <= i <= -1."""
        r = self.rank
        if 1 <= i <= self.n:
            k = i - 1
        elif -self.n <= i <= -1:
            k = r + i          # b_{-j} sits at index 2n - j
        else:
            raise ValueError("basis index out of range")
        return tuple(1 if t == k else 0 for t in range(r))

    def pairing(self, u: Sequence[int], w: Sequence[int]) -> int:
        r = self.rank
        return sum(u[k] * w[r - 1 - k] for k in range(r))

    def qval(self, v: Sequence[int]) -> int:
        r = self.rank
        return sum(v[i] * v[r - 1 - i] for i in range(self.n))

    def split_xy(self, v: Sequence[int]) -> Tuple[List[int], List[int]]:
        """(x, y) in natural index order: x[i-1] = coeff of b_i,
        y[i-1] = coeff of b_{-i}."""
        r = self.rank
        x = [v[i] for i in range(self.n)]
        y = [v[r - 1 - i] for i in range(self.n)]
        return x, y

    def join_xy(self, x: Sequence[int], y: Sequence[int]) -> VectorZ:
        return tuple(list(x) + [y[self.n - 1 - t] for t in range(self.n)])


@lru_cache(maxsize=None)
def _eye(r: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def _det_int(m) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(row) for row in m]
    r = len(a)
    sign = 1
    prev = 1
    for k in range(r - 1):
        if a[k][k] == 0:
            for i in range(k + 1, r):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[r - 1][r - 1]


class LatticeIsometry:
    """An element of SO(L)(Z): integer matrix with g^t J g = J, det g = +1.

    The constructor checks both conditions, for an arbitrary matrix.
    Everything else builds through _trusted without a check: identity;
    the factor constructors below, whose parameter checks imply both
    conditions (each docstring gives the argument); and compose and
    inverse, since SO(L)(Z) is a group.  The public reductions re-check
    their final product with _check."""

    def __init__(self, lattice: SplitLattice, matrix):
        self.lattice = lattice
        self.matrix = tuple(tuple(int(e) for e in row) for row in matrix)
        self._check()

    def _check(self):
        """Raise ValueError unless self.matrix is in SO(L)(Z)."""
        r = self.lattice.rank
        if len(self.matrix) != r or any(len(row) != r for row in self.matrix):
            raise ValueError("matrix size does not match the lattice rank")
        # (g^t J g)[i][j] = (column i, column j reversed); symmetric in i, j
        cols = list(zip(*self.matrix))
        for i in range(r):
            for j in range(i, r):
                if (sum(map(mul, cols[i], reversed(cols[j])))
                        != (i + j == r - 1)):
                    raise ValueError("matrix does not preserve the form")
        if _det_int(self.matrix) != 1:
            raise ValueError("determinant must be +1")

    @classmethod
    def _trusted(cls, lattice: SplitLattice, matrix) -> "LatticeIsometry":
        """An isometry from a matrix known to be one (a tuple of int
        tuples), unchecked."""
        g = cls.__new__(cls)
        g.lattice, g.matrix = lattice, matrix
        return g

    @staticmethod
    def identity(lattice: SplitLattice) -> "LatticeIsometry":
        return LatticeIsometry._trusted(lattice, _eye(lattice.rank))

    def apply(self, v: Sequence[int]) -> VectorZ:
        return tuple(sum(map(mul, row, v)) for row in self.matrix)

    def compose(self, other: "LatticeIsometry") -> "LatticeIsometry":
        """self o other (apply other first)."""
        if other.lattice != self.lattice:
            raise ValueError("isometries of different lattices")
        # Row i of the product is the sum over k of self[i][k] other[k], over
        # the nonzero self[i][k] only: the factors are mostly identity, and
        # no row of an invertible matrix is zero.
        m = []
        for row in self.matrix:
            terms = [o if e == 1 else [e * x for x in o]
                     for e, o in zip(row, other.matrix) if e]
            m.append(tuple(map(sum, zip(*terms))) if len(terms) > 1
                     else tuple(terms[0]))
        return LatticeIsometry._trusted(self.lattice, tuple(m))

    def inverse(self) -> "LatticeIsometry":
        # g^{-1} = J^{-1} g^t J; with the antidiagonal form this is the
        # antitranspose m[i][j] -> m[r-1-j][r-1-i].
        r = self.lattice.rank
        m = tuple(tuple(self.matrix[r - 1 - j][r - 1 - i] for j in range(r))
                  for i in range(r))
        return LatticeIsometry._trusted(self.lattice, m)

    def __eq__(self, other):
        return (isinstance(other, LatticeIsometry)
                and self.lattice == other.lattice
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.lattice, self.matrix))


def _square(m, n: int, name: str) -> Tuple[Tuple[int, ...], ...]:
    """m as n int tuples; raises ValueError unless it is n x n and
    integral."""
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"{name} must be {n}x{n}")
    out = tuple(tuple(int(e) for e in row) for row in m)
    if out != tuple(map(tuple, m)):
        raise ValueError(f"{name} must have integer entries")
    return out


def _skew(m, n: int, name: str) -> Tuple[Tuple[int, ...], ...]:
    m = _square(m, n, name)
    if any(m[i][j] != -m[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError(f"{name} must be skew-symmetric")
    return m


def _levi(lattice: SplitLattice, A, A_inv_t) -> LatticeIsometry:
    """g_A from A and (A^{-1})^t, both n x n int tuples, unchecked.  In the
    storage order y_j sits at index 2n-1-j, so the y-block is A^{-t} with
    its rows and columns reversed."""
    zeros = (0,) * lattice.n
    return LatticeIsometry._trusted(
        lattice, tuple(row + zeros for row in A)
        + tuple(zeros + row[::-1] for row in reversed(A_inv_t)))


def levi_isometry(lattice: SplitLattice, A) -> LatticeIsometry:
    """g_A in the Levi of the Siegel parabolic: x -> A x, y -> A^{-t} y.

    Checked: A is n x n and unimodular, so A^{-t} is integral.  Then g_A
    preserves the form, (A x)^t (A^{-t} y') = x^t y', and det g_A =
    det A det A^{-1} = +1 even when det A = -1.  The row reduction of A's
    columns checks it and gives M A = I, so A^{-t} = M^t."""
    A = _square(A, lattice.n, "A")
    M, _ = _std_transform(tuple(zip(*A)), lattice.n)
    return _levi(lattice, A, tuple(zip(*M)))


def siegel_unipotent(lattice: SplitLattice, B) -> LatticeIsometry:
    """u_B: x -> x + B y, y -> y.

    Checked: B is n x n and skew.  Then (x + B y)^t y' + y^t (x' + B y') =
    x^t y' + y^t x' + y^t (B^t + B) y' preserves the form, and u_B is
    unitriangular, so det u_B = +1."""
    n, r = lattice.n, lattice.rank
    B = _skew(B, n, "B")
    eye = _eye(r)
    return LatticeIsometry._trusted(
        lattice, tuple(eye[i][:n] + B[i][::-1] for i in range(n)) + eye[n:])


def opposite_unipotent(lattice: SplitLattice, C) -> LatticeIsometry:
    """u_C in the radical opposite the Siegel parabolic: x -> x,
    y -> y + C x.

    Checked: C is n x n and skew; the proof is siegel_unipotent's with x
    and y exchanged."""
    n, r = lattice.n, lattice.rank
    C = _skew(C, n, "C")
    eye = _eye(r)
    return LatticeIsometry._trusted(
        lattice, eye[:n] + tuple(C[i] + eye[r - 1 - i][n:]
                                 for i in reversed(range(n))))


def swap_isometry(lattice: SplitLattice, i: int, j: int) -> LatticeIsometry:
    """Exchange b_i <-> b_{-i} and b_j <-> b_{-j}.

    Checked: 1 <= i, j <= n and i != j.  Exchanging x_k and y_k keeps
    x_k y'_k + y_k x'_k, and two disjoint transpositions have det +1 (one
    alone would have det -1)."""
    n, r = lattice.n, lattice.rank
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("swap index out of range")
    if i == j:
        raise ValueError("need two distinct indices to keep det = +1")
    perm = list(range(r))
    for k in (i, j):
        perm[k - 1], perm[r - k] = r - k, k - 1
    eye = _eye(r)
    return LatticeIsometry._trusted(lattice, tuple(eye[p] for p in perm))


def embed_isometry(lattice: SplitLattice, sub: LatticeIsometry,
                   offset: int) -> LatticeIsometry:
    """Extend an isometry h of span(b_{k+1},...,b_{-(k+1)}) (k = offset) by
    the identity on b_1,...,b_k, b_{-k},...,b_{-1}.  In the storage order
    the sublattice occupies the contiguous middle slice.

    Checked: rank(sub) + 2 offset = rank, offset >= 0.  The middle slice is
    orthogonal to the outer coordinates and carries the sublattice's own
    antidiagonal form, so diag(I_k, h, I_k) preserves the form, and its
    det is det h = +1."""
    r = lattice.rank
    if offset < 0 or sub.lattice.rank + 2 * offset != r:
        raise ValueError("sublattice rank does not match the offset")
    eye = _eye(r)
    pad = (0,) * offset
    return LatticeIsometry._trusted(
        lattice, eye[:offset] + tuple(pad + row + pad for row in sub.matrix)
        + eye[r - offset:])


def _rows_to_std(cols: Sequence[Sequence[int]], n: int):
    """An M in GL_n(Z) with M c_j = gcd-pivot e_j for each given column c_j,
    by row operations on [c_1 ... c_k | M]; returns (M, W = M^{-t}, pivots).
    W takes each operation's contragredient: rows (j, i) by [[p, q], [s, t]]
    (det 1) go with [[t, -s], [-q, p]], a negation with itself, and
    row_i -= f row_j with W_j += f W_i."""
    k = len(cols)
    a = [list(c) + [int(i == j) for j in range(n)]
         for i, c in enumerate(zip(*cols))]
    W = [[int(i == j) for j in range(n)] for i in range(n)]
    pivots = []
    for j in range(k):
        for i in range(j + 1, n):
            if a[i][j] == 0:
                continue
            g, p, q = _xgcd(a[j][j], a[i][j])
            s, t = -(a[i][j] // g), a[j][j] // g
            a[j], a[i] = ([p * x + q * y for x, y in zip(a[j], a[i])],
                          [s * x + t * y for x, y in zip(a[j], a[i])])
            W[j], W[i] = ([t * x - s * y for x, y in zip(W[j], W[i])],
                          [p * y - q * x for x, y in zip(W[j], W[i])])
        if a[j][j] < 0:
            a[j] = [-x for x in a[j]]
            W[j] = [-x for x in W[j]]
        pivots.append(a[j][j])
        for i in range(j):
            if a[j][j] and a[i][j] % a[j][j] == 0:
                f = a[i][j] // a[j][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
                W[j] = [x + f * y for x, y in zip(W[j], W[i])]
    return (tuple(tuple(row[k:]) for row in a), tuple(map(tuple, W)),
            pivots)


def _std_transform(cols, n: int):
    """(M, M^{-t}) with M c_j = e_j; raises ValueError unless the columns
    are a primitive system (all pivots 1): they extend to a basis."""
    M, W, pivots = _rows_to_std(cols, n)
    if any(p != 1 for p in pivots):
        raise ValueError("columns do not extend to a unimodular matrix")
    return M, W


def wedge_pair(x1: Sequence[int], x2: Sequence[int],
               y1: Sequence[int], y2: Sequence[int]) -> int:
    """(x1 ^ x2, y1 ^ y2) = (x1,y2)(x2,y1) - (x1,y1)(x2,y2)."""
    lat = SplitLattice(len(x1) // 2)
    return (lat.pairing(x1, y2) * lat.pairing(x2, y1)
            - lat.pairing(x1, y1) * lat.pairing(x2, y2))


def gram_of_pair(T1: Sequence[int], T2: Sequence[int]) -> GramTriple:
    """S(T1, T2) recorded as the triple (q(T1), (T1,T2), q(T2))."""
    lat = SplitLattice(len(T1) // 2)
    return GramTriple(lat.qval(T1), lat.pairing(T1, T2), lat.qval(T2))


def _check_postcondition(ok: bool, what: str):
    if not ok:
        raise AssertionError("reduction postcondition failed: " + what)


def _in_group(g: LatticeIsometry) -> LatticeIsometry:
    """g, once checked to be in SO(L)(Z).  reduce_pair builds an unchecked
    product of factors; this one matrix check per call catches a wrong
    factor block that still sends the input to its target."""
    try:
        g._check()
    except ValueError as e:
        _check_postcondition(False, f"g is not in SO(L)(Z): {e}")
    return g


def _reduce_primitive_vector(v: Sequence[int]
                             ) -> Tuple[LatticeIsometry, int]:
    """Some g with g v = a b_1 + b_{-1}, a = q(v), for v primitive; a
    product of SO(L)(Z) factors, without the final SO(L)(Z) check, for the
    reductions that build on it and check their own product."""
    lat = SplitLattice(len(v) // 2)
    n = lat.n
    v = tuple(int(e) for e in v)
    if _content(v) != 1:
        raise ValueError("not primitive")
    a = lat.qval(v)
    if v == lat.join_xy([a] + [0] * (n - 1), [1] + [0] * (n - 1)):
        return LatticeIsometry.identity(lat), a

    g = LatticeIsometry.identity(lat)

    def push(step):
        nonlocal g
        g = step.compose(g)
        return g.apply(v)

    x, y = lat.split_xy(v)
    if any(x):
        # Levi: x -> (d, 0, ..., 0), d = content(x) > 0.
        M, M_it, _ = _rows_to_std([x], n)
        w = push(_levi(lat, M, M_it))
        x, y = lat.split_xy(w)
        d = x[0]
        # GL_{n-1} fixing b_1, b_{-1}: y tail -> (e, 0, ..., 0).  The
        # column e_1 taken first pins row 1 and column 1 of N.
        if any(y[1:]):
            N, N_it, _ = _rows_to_std([[1] + [0] * (n - 1), [0] + y[1:]], n)
            w = push(_levi(lat, N_it, N))
            x, y = lat.split_xy(w)
        # Opposite unipotent: y_3 += d makes y = (y_1, e, d, 0, ...), which
        # is primitive because gcd(d, y_1, e) = content(v) = 1.
        C = [[0] * n for _ in range(n)]
        C[2][0], C[0][2] = 1, -1
        w = push(opposite_unipotent(lat, C))
        x, y = lat.split_xy(w)
    # Now y is primitive: Levi sends it to e_1.
    M, M_it = _std_transform([y], n)
    w = push(_levi(lat, M_it, M))
    x, y = lat.split_xy(w)
    # Siegel unipotent clears x_2, ..., x_n (y = e_1, so x_i += B_i1).
    B = [[0] * n for _ in range(n)]
    for i in range(1, n):
        B[i][0], B[0][i] = -x[i], x[i]
    w = push(siegel_unipotent(lat, B))

    target = lat.join_xy([a] + [0] * (n - 1), [1] + [0] * (n - 1))
    _check_postcondition(w == target, "g v != a b_1 + b_{-1}")
    return g, a


def find_complementary_plane(T1: Sequence[int],
                             T2: Sequence[int]) -> Tuple[VectorZ, VectorZ]:
    """(u1, u2) spanning an isotropic plane with (T1 ^ T2, u1 ^ u2) = 1.
    Requires n >= 4 and D = -4 det S(T1, T2) odd (squarefree in practice;
    the construction raises 'hypothesis violated' when its coprimality
    consequence fails)."""
    lat = SplitLattice(len(T1) // 2)
    n = lat.n
    if n < 4:
        raise ValueError("the complementary-plane construction needs n >= 4")
    T1 = tuple(int(e) for e in T1)
    T2 = tuple(int(e) for e in T2)
    t = gram_of_pair(T1, T2)
    D = -t.disc()  # b^2 - 4ac = -4 det S
    if D % 2 == 0:
        raise ValueError("hypothesis violated: D = -4 det S must be odd")
    # D odd squarefree forces T1 primitive (a common divisor k gives k^2 | D).
    g1, a = _reduce_primitive_vector(T1)
    w2 = g1.apply(T2)
    x, y = lat.split_xy(w2)
    r, s = x[0], y[0]
    # Reduce the component of T2 in span(b_2, ..., b_{-2}) to m(beta b_2 +
    # b_{-2}) with the stabilizer of b_1, b_{-1} (a copy of the n-1 problem).
    tail = list(x[1:]) + [w2[k] for k in range(n, 2 * n - 1)]
    g, m = g1, 0
    if any(tail):
        m = _content(tail)
        h, _ = _reduce_primitive_vector(tuple(e // m for e in tail))
        g = embed_isometry(lat, h, 1).compose(g)
    alpha = a * s - r
    gg, xx, yy = _xgcd(alpha, -m)       # alpha*xx - m*yy = gg
    if gg != 1:
        raise ValueError("hypothesis violated: gcd(a s - r, m) != 1, "
                         "so D is not odd and squarefree")
    b = lat.basis_vector
    u1 = tuple(p1 + p3 for p1, p3 in zip(b(1), b(3)))
    u2 = tuple(xx * e1 + yy * e2 - xx * e3
               for e1, e2, e3 in zip(b(-1), b(2), b(-3)))
    ginv = g.inverse()
    u1, u2 = ginv.apply(u1), ginv.apply(u2)
    _check_postcondition(
        lat.qval(u1) == 0 and lat.qval(u2) == 0
        and lat.pairing(u1, u2) == 0, "plane is not isotropic")
    _check_postcondition(wedge_pair(T1, T2, u1, u2) == 1,
                         "(T1 ^ T2, u1 ^ u2) != 1")
    return u1, u2


def _wedge_primitive(u1: Sequence[int], u2: Sequence[int]) -> bool:
    r = len(u1)
    g = 0
    for i in range(r):
        for j in range(i + 1, r):
            g = gcd(g, u1[i] * u2[j] - u1[j] * u2[i])
    return g == 1


def _reduce_isotropic_plane(u1: Sequence[int],
                            u2: Sequence[int]) -> LatticeIsometry:
    """Some g with g u1 = b_1, g u2 = b_2, for an isotropic pair whose
    wedge is primitive in the second exterior power of L; a product of
    SO(L)(Z) factors, without the final SO(L)(Z) check."""
    lat = SplitLattice(len(u1) // 2)
    n = lat.n
    u1 = tuple(int(e) for e in u1)
    u2 = tuple(int(e) for e in u2)
    if (lat.qval(u1) or lat.qval(u2) or lat.pairing(u1, u2)):
        raise ValueError("the span of u1, u2 must be isotropic")
    if not _wedge_primitive(u1, u2):
        raise ValueError("not primitive wedge")
    b = lat.basis_vector
    if u1 == b(1) and u2 == b(2):
        return LatticeIsometry.identity(lat)

    # Step 1: u1 is primitive and isotropic, so it reduces to b_{-1}; the
    # swap (b_1 <-> b_{-1}, b_2 <-> b_{-2}) then puts it at b_1.
    g1, a1 = _reduce_primitive_vector(u1)
    g = swap_isometry(lat, 1, 2).compose(g1)
    w2 = g.apply(u2)
    # (u1, u2) = 0 means w2 has no b_{-1} component; its b_1 component is
    # irrelevant to the wedge, and the middle part is primitive isotropic.
    x, y = lat.split_xy(w2)
    c = x[0]
    mid = list(x[1:]) + [w2[k] for k in range(n, 2 * n - 1)]
    # Step 2: reduce the middle part to b_{-2} inside span(b_2,...,b_{-2}),
    # then swap (b_2 <-> b_{-2}, b_3 <-> b_{-3}) to place it at b_2.
    h, a2 = _reduce_primitive_vector(mid)
    g = embed_isometry(lat, h, 1).compose(g)
    g = swap_isometry(lat, 2, 3).compose(g)
    # Step 3: a Levi element with A = [[1, -c], [0, 1]] (+ identity) clears
    # the leftover b_1 coefficient of u2 while fixing b_1; A^{-t} is
    # [[1, 0], [c, 1]] (+ identity).
    A, A_it = ([list(row) for row in _eye(n)] for _ in range(2))
    A[0][1], A_it[1][0] = -c, c
    g = _levi(lat, tuple(map(tuple, A)), tuple(map(tuple, A_it))).compose(g)

    _check_postcondition(g.apply(u1) == b(1) and g.apply(u2) == b(2),
                         "g u1 != b_1 or g u2 != b_2")
    return g


def reduce_pair(T1: Sequence[int], T2: Sequence[int]
                ) -> Tuple[LatticeIsometry, GramTriple]:
    """Some g in SO(L)(Z) with g T1 = a b_1 + b_{-1} and
    g T2 = b b_1 + c b_2 + b_{-2}, where (a, b, c) records S(T1, T2).
    Requires n >= 4 and -4 det S odd and squarefree; since the canonical
    form depends only on S, this realizes transitivity on X_T."""
    lat = SplitLattice(len(T1) // 2)
    n = lat.n
    T1 = tuple(int(e) for e in T1)
    T2 = tuple(int(e) for e in T2)
    t = gram_of_pair(T1, T2)
    b = lat.basis_vector
    target1 = tuple(t.a * p + q for p, q in zip(b(1), b(-1)))
    target2 = tuple(t.b * p + t.c * q + s
                    for p, q, s in zip(b(1), b(2), b(-2)))
    if T1 == target1 and T2 == target2:
        return LatticeIsometry.identity(lat), t

    u1, u2 = find_complementary_plane(T1, T2)
    g = _reduce_isotropic_plane(u1, u2)
    w1, w2 = g.apply(T1), g.apply(T2)
    # Now (w1 ^ w2, b_1 ^ b_2) = 1, i.e. the (b_{-1}, b_{-2}) minor of the
    # y-parts is a unit, so (y1, y2) extends to a basis: a Levi element
    # moves the y-parts to exactly (b_{-1}, b_{-2}).
    _, y1 = lat.split_xy(w1)
    _, y2 = lat.split_xy(w2)
    M, M_it = _std_transform([y1, y2], n)
    g = _levi(lat, M_it, M).compose(g)
    w1, w2 = g.apply(T1), g.apply(T2)
    x1, _ = lat.split_xy(w1)
    x2, _ = lat.split_xy(w2)
    # Siegel unipotent: with y-parts (e_1, e_2), the Gram entries pin the
    # surviving coefficients (x1[0] = a, x2[1] = c, x1[1] + x2[0] = b) and a
    # skew B clears everything else.
    B = [[0] * n for _ in range(n)]
    B[1][0], B[0][1] = -x1[1], x1[1]
    for i in range(2, n):
        B[i][0], B[0][i] = -x1[i], x1[i]
        B[i][1], B[1][i] = -x2[i], x2[i]
    g = siegel_unipotent(lat, B).compose(g)

    _check_postcondition(g.apply(T1) == target1 and g.apply(T2) == target2,
                         "pair did not reach the canonical form")
    return _in_group(g), t
