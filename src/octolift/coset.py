"""Integer 2x2 matrix machinery: Hermite-normal-form coset representatives
for GL2(Z)\\M2(Z), Smith-divisor primitivity tests, Gram matrices of index
pairs, canonical strongly primitive representatives, and divisor-coset
enumeration."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import Iterator, List, NamedTuple, Tuple

Mat2Z = Tuple[Tuple[int, int], Tuple[int, int]]
IndexPair = Tuple[Mat2Z, Mat2Z]


def mat2(a, b, c, d) -> Mat2Z:
    return ((int(a), int(b)), (int(c), int(d)))


MAT2_ZERO = mat2(0, 0, 0, 0)


def mat2_det(m: Mat2Z) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat2_add(m: Mat2Z, n: Mat2Z) -> Mat2Z:
    return tuple(tuple(a + b for a, b in zip(rm, rn))
                 for rm, rn in zip(m, n))


def mat2_scale(c: int, m: Mat2Z) -> Mat2Z:
    return tuple(tuple(c * e for e in row) for row in m)


def mat2_transpose(m: Mat2Z) -> Mat2Z:
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def mat2_adjugate(m: Mat2Z) -> Mat2Z:
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


class GramTriple(NamedTuple):
    """The half-integral symmetric matrix [[a, b/2], [b/2, c]]: a tuple, so
    triples order as (a, b, c) and JSON writes one as [a, b, c]."""
    a: int
    b: int
    c: int

    def disc(self) -> int:
        """4ac - b^2 (positive for positive definite triples)."""
        return 4 * self.a * self.c - self.b * self.b

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.disc() > 0


def reduce_gram(t: GramTriple) -> GramTriple:
    """GL2(Z)-reduction of a positive semidefinite triple to the canonical
    representative with 0 <= b <= a <= c.  Raises for indefinite or negative
    input."""
    a, b, c = t.a, t.b, t.c
    if 4 * a * c - b * b < 0 or a < 0 or c < 0:
        raise ValueError("reduce_gram needs a positive semidefinite triple")
    while True:
        if a > c:
            a, c, b = c, a, -b
        if a == 0:
            return GramTriple(0, 0, c)   # disc >= 0 forces b == 0
        r = b % (2 * a)
        if r > a:
            r -= 2 * a
        k = (r - b) // (2 * a)
        c = a * k * k + b * k + c
        b = r
        if a <= c:
            return GramTriple(a, abs(b), c)


def gram(lam: IndexPair) -> GramTriple:
    """S(lambda) = 1/2 [[(T1,T1), (T1,T2)], [(T1,T2), (T2,T2)]] recorded as
    the triple (det T1, (T1,T2), det T2), in closed form from the eight
    entries: (T1, T2) = a1 d2 + a2 d1 - b1 c2 - b2 c1."""
    ((a1, b1), (c1, d1)), ((a2, b2), (c2, d2)) = lam
    return GramTriple(a1 * d1 - b1 * c1, a1 * d2 + a2 * d1 - b1 * c2 - b2 * c1,
                      a2 * d2 - b2 * c2)


@lru_cache(maxsize=4096)
def divisors(n: int) -> Tuple[int, ...]:
    """The positive divisors of |n|, in increasing order; memoised, as the
    lifts and coset enumerations ask for the same small n many times."""
    n = abs(n)
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return tuple(sorted(set(low + [n // d for d in low])))


def hnf_left_cosets(n: int) -> List[Mat2Z]:
    """Representatives [[a, b], [0, d]], ad = n, a,d > 0, 0 <= b < d of
    GL2(Z)\\{r in M2(Z): |det r| = n}.  (Negative determinants are absorbed
    by diag(1,-1) on the left.)"""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return [mat2(a, b, 0, n // a) for a in divisors(n) for b in range(n // a)]


def hnf_right_cosets(n: int) -> List[Mat2Z]:
    """Representatives of {r in M2(Z): |det r| = n}/GL2(Z): the transposes
    of the left-coset representatives."""
    return [mat2_transpose(m) for m in hnf_left_cosets(n)]


def _stack(lam: IndexPair):
    """The 4x2 matrix whose columns are the vectorized T1 and T2.  The pair
    action lam . g corresponds to right multiplication of this matrix by g,
    which is what makes its row lattice detect divisibility."""
    T1, T2 = lam
    return tuple((T1[i][j], T2[i][j]) for i in range(2) for j in range(2))


def row_hnf(lam: IndexPair) -> Tuple[int, int, int]:
    """(p, q, t) such that the row lattice of the stack of lam is
    Z(p, q) + Z(0, t): its row Hermite normal form, with p >= 0, t >= 0,
    0 <= q < t when t > 0, and t = 0 when the rank is below 2."""
    p = q = t = 0
    for x, y in _stack(lam):
        while x:   # Euclid on the first column, carrying the second
            k = p // x
            p, q, x, y = x, y, p - k * x, q - k * y
        t = gcd(t, y)
    if p < 0:
        p, q = -p, -q
    if p == 0:
        return (0, t, 0)
    return (p, q % t if t else q, t)


def smith_divisors(lam: IndexPair) -> Tuple[int, int]:
    """Smith elementary divisors (d1, d2), d1 | d2, of the 4x2 matrix with
    columns vec(T1), vec(T2) (d2 = 0 if rank < 2).  The matrix is
    row-equivalent to [[p, q], [0, t]], so d1 = gcd(p, q, t) and
    d1*d2 = p*t."""
    p, q, t = row_hnf(lam)
    d1 = gcd(p, q, t)
    return (d1, p * t // d1) if d1 else (0, 0)


def is_strongly_primitive(lam: IndexPair) -> bool:
    """True iff the only r in GL2(Q) cap M2(Z) with lam r^{-1} still integral
    are units: equivalently both Smith divisors of the 4x2 matrix with
    columns vec(T1), vec(T2) are 1, i.e. its row lattice is Z^2."""
    if lam[0] == MAT2_ZERO and lam[1] == MAT2_ZERO:
        raise ValueError("strong primitivity is undefined for the zero pair")
    p, _q, t = row_hnf(lam)
    return (p, t) == (1, 1)


def breve(t: GramTriple) -> IndexPair:
    """A canonical strongly primitive pair with gram equal to t exactly:
    T1 = [[1,0],[b,a]], T2 = [[0,-1],[c,0]]."""
    return (mat2(1, 0, t.b, t.a), mat2(0, -1, t.c, 0))


def pair_act(lam: IndexPair, g: Mat2Z) -> IndexPair:
    """lam . g: the pair (T1, T2) viewed as a row vector of matrices, so
    lam . g = (g11 T1 + g21 T2, g12 T1 + g22 T2).  Satisfies
    gram(lam . g) = g^t gram(lam) g."""
    T1, T2 = lam
    return (mat2_add(mat2_scale(g[0][0], T1), mat2_scale(g[1][0], T2)),
            mat2_add(mat2_scale(g[0][1], T1), mat2_scale(g[1][1], T2)))


def _apply_rinv(lam: IndexPair, r: Mat2Z) -> IndexPair:
    """lam . r^{-1} for an r whose row lattice contains that of the stack of
    lam, so the division by det r is exact."""
    n = mat2_det(r)
    return tuple(tuple(tuple(e // n for e in row) for row in T)
                 for T in pair_act(lam, mat2_adjugate(r)))


def _divisor_rows(lam: IndexPair) -> Iterator[Tuple[int, int, int]]:
    """The HNF rows (a, b, d) of every r = [[a, b], [0, d]] that
    divisor_cosets and divisor_grams sum over (see divisor_cosets)."""
    if lam[0] == MAT2_ZERO and lam[1] == MAT2_ZERO:
        raise ValueError("divisor cosets are undefined for the zero pair")
    p, q, t = row_hnf(lam)
    if t == 0:
        # rank-1 stacked matrix: r can be scaled arbitrarily along the kernel
        # direction without losing integrality.
        raise ValueError("divisor cosets are infinite for rank-deficient "
                         "pairs")
    for a in divisors(p):
        m = p // a
        for d in divisors(t):
            g = gcd(m, d)
            if q % g:
                continue
            step = d // g
            b0 = q // g * pow(m // g, -1, step) % step
            for b in range(b0, d, step):
                yield a, b, d


def divisor_cosets(lam: IndexPair) -> List[Tuple[Mat2Z, IndexPair]]:
    """All pairs (r, lam.r^{-1}) where r runs over HNF representatives of the
    left GL2(Z)-cosets of {r in GL2(Q) cap M2(Z): lam r^{-1} integral}.

    The pair action is right multiplication of the stack S of lam, so
    lam r^{-1} is integral iff every row of S lies in the row lattice Z^2 r,
    i.e. iff R = Z(p, q) + Z(0, t) (see row_hnf) lies in Z^2 r.  The coset
    GL2(Z) r is the lattice Z^2 r, whose HNF has rows (a, b), (0, d) with
    0 <= b < d, and R lies in it iff a | p, d | t and (p/a) b = q mod d.
    With g = gcd(p/a, d), that congruence is solvable iff g | q, and its
    solutions are b0 + k d/g for k = 0..g-1.  So exactly the admissible
    cosets are built: the lattices between R and Z^2."""
    rs = [mat2(a, b, 0, d) for a, b, d in _divisor_rows(lam)]
    return [(r, _apply_rinv(lam, r)) for r in rs]


def divisor_grams(lam: IndexPair) -> List[Tuple[int, GramTriple]]:
    """(|det r|, gram(lam.r^{-1})) for the same r, in the same order, as
    divisor_cosets(lam), without building lam.r^{-1}.

    gram(lam.g) = g^t gram(lam) g, so with S(lam) = (A, B, C) and
    r^{-1} = [[1/a, -b/(ad)], [0, 1/d]] the triple of lam.r^{-1} is
    (A/a^2, (aB - 2bA)/(a^2 d), (b^2 A - abB + a^2 C)/(a^2 d^2)).  It is
    integral because lam.r^{-1} is, so the divisions are exact."""
    S = gram(lam)
    A, B, C = S.a, S.b, S.c
    out = []
    for a, b, d in _divisor_rows(lam):
        aa = a * a
        out.append((a * d, GramTriple(A // aa, (a * B - 2 * b * A) // (aa * d),
                                      (b * b * A - a * b * B + aa * C)
                                      // (aa * d * d))))
    return out
