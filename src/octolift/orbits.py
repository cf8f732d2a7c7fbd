"""Constructive orbit reduction on the split integral lattice Z^{2n}.

Vectors are integer tuples of length 2n in the coordinate order
(b_1, ..., b_n, b_{-n}, ..., b_{-1}), so the bilinear pairing is the
antidiagonal form (u, w) = sum_k u[k] w[2n-1-k] and the quadratic form is
q(v) = sum_i x_i y_i where x_i is the b_i coefficient and y_i the b_{-i}
coefficient.  For n = 4 this matches the eight-dimensional coordinate order
used by octonion.to_vector8.

Everything is exact integer arithmetic.  Each reduction and each factor is
a sequence of row operations on one augmented matrix R = [g | g v_1 ...],
started from [I | v_1 ...]; decisions are read from the vector columns.  A
step on row k also acts on its partner row k' = 2n-1-k (b_i <-> b_{-i}),
and four primitives hold that layout: _add, _pair, _negate and _swap.  A
reduction on span(b_{k+1}, ..., b_{-(k+1)}) is the same code on rows k..k'.

Where each guarantee is checked:

- LatticeIsometry(lattice, matrix) checks g^t J g = J and det g = +1 for
  an arbitrary matrix.
- Each primitive lies in SO(L)(Z) (its docstring gives the argument), so
  the g block of R needs no check.  The factor constructors
  (levi_isometry, siegel_unipotent, opposite_unipotent, swap_isometry)
  apply primitives to the identity and check only their parameters: A
  unimodular, B and C skew, two distinct swap indices.  random_isometry
  applies the same factors as primitives to one running matrix.
- reduce_pair, the one public reduction, is one pass over one matrix
  [g | g T1, g T2, plane]: the isotropic plane it needs is written in
  closed form in the current coordinates, where it is found, and reduced
  on the same matrix.  It checks on every call that g sends the input to
  its target and, once on the final matrix, that g^t J g = J and
  det g = +1.  Its sub-reductions (_reduce_primitive, _reduce_plane)
  check that their columns reach their targets, _reduce_plane also that
  its plane is isotropic with a primitive wedge, and the unimodular Levi
  step that the y-parts of g T1, g T2 then extend to a basis.
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
    the g block of a matrix R that has seen only the row primitives below
    (each docstring gives the argument), which is how the factor
    constructors and the reductions build theirs; and compose and inverse,
    since SO(L)(Z) is a group.  reduce_pair re-checks its final matrix
    with _check."""

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


Rows = List[List[int]]


def _augment(r: int, vectors: Sequence[Sequence[int]]) -> Rows:
    """R = [I | v_1 v_2 ...] with r rows, for row operations."""
    return [list(row) + [int(v[i]) for v in vectors]
            for i, row in enumerate(_eye(r))]


def _isometry(lattice: SplitLattice, R: Rows) -> LatticeIsometry:
    """The g block of R, unchecked: R has seen only primitives."""
    r = lattice.rank
    return LatticeIsometry._trusted(lattice,
                                    tuple(tuple(row[:r]) for row in R))


def _add(R: Rows, p: int, q: int, f: int):
    """The root element 1 + f (E_pq - E_q'p'), x' = r-1-x the partner row:
    row p += f row q, row q' -= f row p'.  For p != q, q', X = E_pq - E_q'p'
    has X^t J + J X = 0 and X^2 = 0, so 1 + f X is an isometry, unipotent.
    Two x rows give a Levi transvection; x row p, y row q a Siegel root."""
    if f:
        r = len(R)
        R[p] = [a + f * b for a, b in zip(R[p], R[q])]
        R[r - 1 - q] = [a - f * b
                        for a, b in zip(R[r - 1 - q], R[r - 1 - p])]


def _pair(R: Rows, j: int, i: int, p: int, q: int, s: int, t: int):
    """Rows (j, i) by A = [[p, q], [s, t]] of det 1 and the partner rows by
    A^{-t} = [[t, -s], [-q, p]], for j, i both x or both y rows: the Levi
    element of A, an isometry of det +1."""
    r = len(R)
    a, b = R[j], R[i]
    R[j] = [p * x + q * y for x, y in zip(a, b)]
    R[i] = [s * x + t * y for x, y in zip(a, b)]
    a, b = R[r - 1 - j], R[r - 1 - i]
    R[r - 1 - j] = [t * x - s * y for x, y in zip(a, b)]
    R[r - 1 - i] = [p * y - q * x for x, y in zip(a, b)]


def _negate(R: Rows, k: int):
    """Rows k and k' negated: the Levi element of diag(1, .., -1, .., 1)."""
    r = len(R)
    R[k] = [-x for x in R[k]]
    R[r - 1 - k] = [-x for x in R[r - 1 - k]]


def _swap(R: Rows, i: int, j: int):
    """Exchange rows i <-> i' and j <-> j' (i, j distinct x rows): b_i <->
    b_{-i} keeps x_i y'_i + y_i x'_i, and two disjoint transpositions have
    det +1 (one alone would have det -1)."""
    r = len(R)
    for k in (i, j):
        R[k], R[r - 1 - k] = R[r - 1 - k], R[k]


def _siegel(R: Rows, entries):
    """The Siegel unipotent x -> x + B y for the skew B with B[p][q] = f =
    -B[q][p], one entry (p, q, f) per pair of x rows: the commuting roots
    _add(p, q', f) (x_p += f y_q, x_q -= f y_p)."""
    r = len(R)
    for p, q, f in entries:
        _add(R, p, r - 1 - q, f)


def _eliminate(R: Rows, rows: Sequence[int], cols: Sequence[int],
               unimodular: bool = False):
    """Row-reduce R on rows x cols (all x or all y rows): column j gets a
    gcd pivot >= 0 at rows[j], zeros below, and zeros above where the pivot
    divides.  With unimodular, raise ValueError unless every pivot is 1,
    i.e. the columns go exactly to the first unit vectors."""
    for j, c in enumerate(cols):
        k = rows[j]
        for i in rows[j + 1:]:
            if R[i][c]:
                g, p, q = _xgcd(R[k][c], R[i][c])
                _pair(R, k, i, p, q, -(R[i][c] // g), R[k][c] // g)
        if R[k][c] < 0:
            _negate(R, k)
        d = R[k][c]
        for i in rows[:j]:
            if d and R[i][c] % d == 0:
                _add(R, i, k, -(R[i][c] // d))
    if unimodular and any(R[k][c] != 1 for k, c in zip(rows, cols)):
        raise ValueError("columns do not extend to a unimodular matrix")


def levi_isometry(lattice: SplitLattice, A) -> LatticeIsometry:
    """g_A in the Levi of the Siegel parabolic: x -> A x, y -> A^{-t} y.

    Checked: A is n x n and unimodular, so A^{-t} is integral.  Then g_A
    preserves the form, (A x)^t (A^{-t} y') = x^t y', and det g_A =
    det A det A^{-1} = +1 even when det A = -1.  Eliminating A's columns
    checks it and builds g_M with M A = I; g_A is its inverse."""
    n, r = lattice.n, lattice.rank
    A = _square(A, n, "A")
    R = _augment(r, [col + (0,) * n for col in zip(*A)])
    _eliminate(R, range(n), range(r, r + n), unimodular=True)
    return _isometry(lattice, R).inverse()


def siegel_unipotent(lattice: SplitLattice, B) -> LatticeIsometry:
    """u_B: x -> x + B y, y -> y.

    Checked: B is n x n and skew; u_B is then a product of _siegel's
    roots."""
    n = lattice.n
    B = _skew(B, n, "B")
    R = _augment(lattice.rank, ())
    _siegel(R, [(i, j, B[i][j]) for i in range(n) for j in range(i + 1, n)])
    return _isometry(lattice, R)


def opposite_unipotent(lattice: SplitLattice, C) -> LatticeIsometry:
    """u_C in the radical opposite the Siegel parabolic: x -> x,
    y -> y + C x.

    Checked: C is n x n and skew; u_C is the product of the roots
    _add(i', j, C[i][j]), i < j."""
    n, r = lattice.n, lattice.rank
    C = _skew(C, n, "C")
    R = _augment(r, ())
    for i in range(n):
        for j in range(i + 1, n):
            _add(R, r - 1 - i, j, C[i][j])
    return _isometry(lattice, R)


def swap_isometry(lattice: SplitLattice, i: int, j: int) -> LatticeIsometry:
    """Exchange b_i <-> b_{-i} and b_j <-> b_{-j}.

    Checked: 1 <= i, j <= n and i != j, as _swap needs."""
    n = lattice.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("swap index out of range")
    if i == j:
        raise ValueError("need two distinct indices to keep det = +1")
    R = _augment(lattice.rank, ())
    _swap(R, i - 1, j - 1)
    return _isometry(lattice, R)


def random_isometry(lattice: SplitLattice, rng) -> LatticeIsometry:
    """A pseudo-random element of SO(L)(Z) from rng (a random.Random): six
    random factors with small entries, each a Levi transvection x_i += k x_j,
    a Siegel or opposite root of the skew matrix with entries k, -k at (i,
    j), (j, i), or a swap, applied as primitives to one running matrix."""
    n, r = lattice.n, lattice.rank
    R = _augment(r, ())
    for _ in range(6):
        kind = rng.randrange(4)
        i, j = rng.sample(range(n), 2)
        if kind == 3:
            _swap(R, i, j)
            continue
        k = rng.randint(-2, 2)
        if kind == 0:
            _add(R, i, j, k)            # Levi
        elif kind == 1:
            _add(R, i, r - 1 - j, k)    # Siegel
        else:
            _add(R, r - 1 - i, j, k)    # opposite
    return _isometry(lattice, R)


def gram_of_pair(T1: Sequence[int], T2: Sequence[int]) -> GramTriple:
    """S(T1, T2) recorded as the triple (q(T1), (T1,T2), q(T2))."""
    lat = SplitLattice(len(T1) // 2)
    return GramTriple(lat.qval(T1), lat.pairing(T1, T2), lat.qval(T2))


def _check_postcondition(ok: bool, what: str):
    if not ok:
        raise AssertionError("reduction postcondition failed: " + what)


def _in_group(g: LatticeIsometry) -> LatticeIsometry:
    """g, once checked to be in SO(L)(Z).  reduce_pair builds its matrix
    by unchecked primitives; this one matrix check per call catches a wrong
    step that still sends the input to its target."""
    try:
        g._check()
    except ValueError as e:
        _check_postcondition(False, f"g is not in SO(L)(Z): {e}")
    return g


def _reduce_primitive(R: Rows, c: int, k: int = 0) -> int:
    """Row operations on rows k..k' of R, k' = 2n-1-k, that take column c
    there (a vector v of the span of b_{k+1}, ..., b_{-(k+1)}, primitive) to
    a b_{k+1} + b_{-(k+1)}, a = q(v); returns a.  They act as the identity
    on the other rows, and check only that the column reaches its target."""
    r = len(R)
    xs = list(range(k, r // 2))         # the rows of b_{k+1}, ..., b_n
    ys = [r - 1 - i for i in xs]        # and of b_{-(k+1)}, ..., b_{-n}
    if _content([R[i][c] for i in range(k, r - k)]) != 1:
        raise ValueError("not primitive")
    a = sum(R[i][c] * R[r - 1 - i][c] for i in xs)

    def reached() -> bool:
        return all(R[i][c] == (a if i == k else i == r - 1 - k)
                   for i in range(k, r - k))

    if reached():
        return a
    if any(R[i][c] for i in xs):
        # Levi: x -> (d, 0, ..., 0), d = content(x) > 0.
        _eliminate(R, xs, [c])
        # GL_{n-1} fixing b_1, b_{-1}: y tail -> (e, 0, ..., 0).
        if any(R[i][c] for i in ys[1:]):
            _eliminate(R, ys[1:], [c])
        # Opposite root y_3 += x_1 (y_1 -= x_3) makes y = (y_1, e, d, 0,
        # ...), which is primitive because gcd(d, y_1, e) = content(v) = 1.
        _add(R, ys[2], k, 1)
    # Now y is primitive: Levi sends it to e_1.
    _eliminate(R, ys, [c], unimodular=True)
    # Siegel unipotent clears x_2, ..., x_n (y = e_1, so x_i -= x_i y_1).
    _siegel(R, [(k, i, R[i][c]) for i in xs[1:]])
    _check_postcondition(reached(), "g v != a b_1 + b_{-1}")
    return a


def _reduce_plane(R: Rows, c1: int, c2: int):
    """Row operations on R that take columns c1, c2 (u1, u2: an isotropic
    pair whose wedge is primitive in the second exterior power of L) to b_1,
    b_2; they check only that the columns reach their targets."""
    r = len(R)
    u1 = [row[c1] for row in R]
    u2 = [row[c2] for row in R]
    lat = SplitLattice(r // 2)
    if (lat.qval(u1) or lat.qval(u2) or lat.pairing(u1, u2)):
        raise ValueError("the span of u1, u2 must be isotropic")
    if _content([u1[i] * u2[j] - u1[j] * u2[i]
                 for i in range(r) for j in range(i + 1, r)]) != 1:
        raise ValueError("not primitive wedge")

    def reached() -> bool:
        return all(row[c1] == (i == 0) and row[c2] == (i == 1)
                   for i, row in enumerate(R))

    if reached():
        return
    # Step 1: u1 is primitive and isotropic, so it reduces to b_{-1}; the
    # swap (b_1 <-> b_{-1}, b_2 <-> b_{-2}) then puts it at b_1.
    _reduce_primitive(R, c1)
    _swap(R, 0, 1)
    # Step 2: (u1, u2) = 0, so u2 has no b_{-1} part now, and its middle
    # part is primitive isotropic: reduce it to b_{-2} on rows 1..2n-2, then
    # swap (b_2 <-> b_{-2}, b_3 <-> b_{-3}) to place it at b_2.
    _reduce_primitive(R, c2, 1)
    _swap(R, 1, 2)
    # Step 3: the Levi transvection x_1 -= c x_2 (y_2 += c y_1) clears the
    # leftover b_1 coefficient c of u2 while fixing b_1.
    _add(R, 0, 1, -R[0][c2])
    _check_postcondition(reached(), "g u1 != b_1 or g u2 != b_2")


def reduce_pair(T1: Sequence[int], T2: Sequence[int]
                ) -> Tuple[LatticeIsometry, GramTriple]:
    """Some g in SO(L)(Z) with g T1 = a b_1 + b_{-1} and
    g T2 = b b_1 + c b_2 + b_{-2}, where (a, b, c) records S(T1, T2).
    Requires n >= 4 and D = -4 det S odd (squarefree in practice; the
    construction raises 'hypothesis violated' when its coprimality
    consequence fails); since the canonical form depends only on S, this
    realizes transitivity on X_T.

    One pass over one matrix R = [g | g T1, g T2, plane]: reduce T1, then
    the part of T2 off b_{+-1} (in a scratch column, divided by its content
    m), and write there, in closed form, an isotropic plane (u1, u2) with
    (g T1 ^ g T2, u1 ^ u2) = 1; reduce that plane to (b_1, b_2), and a
    Levi and a Siegel step finish the pair."""
    lat = SplitLattice(len(T1) // 2)
    n, r = lat.n, lat.rank
    T1 = tuple(int(e) for e in T1)
    T2 = tuple(int(e) for e in T2)
    t = gram_of_pair(T1, T2)
    b = lat.basis_vector
    target1 = tuple(t.a * p + q for p, q in zip(b(1), b(-1)))
    target2 = tuple(t.b * p + t.c * q + s
                    for p, q, s in zip(b(1), b(2), b(-2)))
    if T1 == target1 and T2 == target2:
        return LatticeIsometry.identity(lat), t
    if n < 4:
        raise ValueError("the complementary-plane construction needs n >= 4")
    if t.disc() % 2 == 0:   # D = b^2 - 4ac = -4 det S
        raise ValueError("hypothesis violated: D = -4 det S must be odd")

    # D odd squarefree forces T1 primitive (a common divisor k gives k^2 | D).
    c1, c2, c = r, r + 1, r + 2
    R = _augment(r, (T1, T2, T2))
    a = _reduce_primitive(R, c1)
    x1, y1 = R[0][c], R[r - 1][c]
    # Reduce the component of T2 in span(b_2, ..., b_{-2}) to m(beta b_2 +
    # b_{-2}) with the stabilizer of b_1, b_{-1} (the n-1 problem on rows
    # 1..2n-2, which reads those rows of the scratch column divided by m).
    m = _content([R[i][c] for i in range(1, r - 1)])
    if m:
        for row in R[1:r - 1]:
            row[c] //= m
        _reduce_primitive(R, c, 1)
    alpha = a * y1 - x1
    gg, xx, yy = _xgcd(alpha, -m)       # alpha*xx - m*yy = gg
    if gg != 1:
        raise ValueError("hypothesis violated: gcd(a s - r, m) != 1, "
                         "so D is not odd and squarefree")
    # Now g T1 = a b_1 + b_{-1} and g T2 = x1 b_1 + m(beta b_2 + b_{-2}) +
    # y1 b_{-1}.  The plane u1 = b_1 + b_3, u2 = xx b_{-1} + yy b_2 -
    # xx b_{-3} is isotropic, and (g T1 ^ g T2, u1 ^ u2) = alpha xx - m yy
    # = 1: it goes in the scratch column and one new column.
    for i, row in enumerate(R):
        row[c] = (i == 0) + (i == 2)
        row.append(xx * ((i == r - 1) - (i == r - 3)) + yy * (i == 1))
    _reduce_plane(R, c, c + 1)
    # Now (g T1 ^ g T2, b_1 ^ b_2) = 1, i.e. the (b_{-1}, b_{-2}) minor of
    # the y-parts is a unit, so (y1, y2) extends to a basis: a Levi element
    # moves the y-parts to exactly (b_{-1}, b_{-2}).
    _eliminate(R, [r - 1 - i for i in range(n)], [c1, c2], unimodular=True)
    # Siegel unipotent: with y-parts (e_1, e_2), the Gram entries pin the
    # surviving coefficients (x1[0] = a, x2[1] = c, x1[1] + x2[0] = b) and a
    # skew B clears everything else.
    _siegel(R, [(0, i, R[i][c1]) for i in range(1, n)]
            + [(1, i, R[i][c2]) for i in range(2, n)])

    g = _isometry(lat, R)
    _check_postcondition(g.apply(T1) == target1 and g.apply(T2) == target2,
                         "pair did not reach the canonical form")
    return _in_group(g), t
