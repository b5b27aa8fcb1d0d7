"""Exact integer and rational linear algebra.

Everything in this module works over arbitrary-precision integers and
`fractions.Fraction`; no floating point. The one elimination is the
Smith normal form U A V = S of an integer matrix (`smith_normal_form`,
kept by `SmithFactor`); every determinant, rank, kernel, solve, inverse
and cone test reads it:

- det A = eps d_1 ... d_n (0 when rank < n), where eps = det U det V is
  tracked while factoring: it flips on each swap of two distinct rows
  or columns and on each negated row.
- With D the largest nonzero d_i and VS = V diag(D/d_i) in integers,
  x = VS (U b) / D solves A x = b with the coordinates of V^-1 x past
  the rank set to 0, and D A^-1 = VS U is integral. A rational b is
  first scaled by the lcm of its denominators. The solve keeps x as
  integer numerators over that positive denominator (`scaled_solve`),
  so a sign test builds no Fraction. V is unimodular, so A x = b has
  an integral solution iff this x is integral.
- The columns of V past the rank are a saturated kernel basis, and for
  the generators B of a simplicial cone Z^n / B Z^n is the product of
  the Z/d_i (the cone's Box group).

A non-integral entry raises ValueError instead of being truncated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


class EmptyMatrixError(ValueError):
    pass


class RankDeficientError(ValueError):
    pass


class DependentGeneratorsError(ValueError):
    pass


Vec = tuple[int, ...]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _integer(x) -> int:
    """x as an int; ValueError unless x is an integer."""
    if type(x) is int:
        return x
    q = Fraction(x)
    if q.denominator != 1:
        raise ValueError(f"matrix entry {x!r} is not an integer")
    return q.numerator


def smith_normal_form(A: Sequence[Sequence[int]]):
    """Return (U, S, V, eps) with U*A*V = S diagonal, U and V unimodular
    and eps = det U * det V.

    Diagonal entries of S are nonnegative and each divides the next.
    """
    rows = len(A)
    if rows == 0 or len(A[0]) == 0:
        raise EmptyMatrixError("matrix has no entries")
    cols = len(A[0])
    S = [[_integer(x) for x in row] for row in A]
    if any(len(row) != cols for row in S):
        raise ValueError("ragged matrix")
    U = _identity(rows)
    V = _identity(cols)
    eps = 1

    def swap_rows(i, j):
        nonlocal eps
        if i != j:
            S[i], S[j] = S[j], S[i]
            U[i], U[j] = U[j], U[i]
            eps = -eps

    def swap_cols(i, j):
        nonlocal eps
        if i != j:
            for row in S:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]
            eps = -eps

    def add_row(dst, src, k):
        # row_dst += k * row_src
        S[dst] = [a + k * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, k):
        for row in S:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    t = 0
    while t < rows and t < cols:
        # find a nonzero pivot in the remaining block
        pr = pc = -1
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = abs(S[i][j])
                if a and (best is None or a < best):
                    best, pr, pc = a, i, j
        if best is None:
            break
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    add_row(i, t, -q)
                    if S[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    add_col(j, t, -q)
                    if S[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # divisibility condition
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if S[i][j] % S[t][t]:
                    add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if S[t][t] < 0:
                S[t] = [-a for a in S[t]]
                U[t] = [-a for a in U[t]]
                eps = -eps
            t += 1
    return U, S, V, eps


def rank(A: Sequence[Sequence[int]]) -> int:
    return SmithFactor(A).rank


class SmithFactor:
    """U A V = S for one integer matrix A, computed once and reused by
    its determinant and by every kernel basis, solve and inverse of A."""

    def __init__(self, A: Sequence[Sequence[int]]):
        self.U, S, self.V, self.eps = smith_normal_form(A)
        self.rows, self.cols = len(S), len(S[0])
        self.diag = [S[i][i] for i in range(min(self.rows, self.cols))]
        # the nonzero d_i come first, each dividing the next
        self.rank = r = sum(1 for d in self.diag if d)
        self.D = D = self.diag[r - 1] if r else 1
        self.VS = [[row[k] * (D // self.diag[k]) for k in range(r)] for row in self.V]

    @property
    def det(self) -> int:
        """eps d_1 ... d_n, which is 0 when A is singular."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return self.eps * math.prod(self.diag)

    def kernel_basis(self) -> list[Vec]:
        """Saturated integral basis of ker(A); see snf_kernel_basis."""
        if self.rank < self.rows:
            raise RankDeficientError("matrix rows are linearly dependent")
        V, cols = self.V, self.cols
        return [tuple(V[i][j] for i in range(cols)) for j in range(self.rank, cols)]

    def scaled_solve(self, b: Sequence) -> Optional[tuple[list[int], int]]:
        """(num, q) in integers with q > 0 and x = num / q the rational
        solution of A x = b whose coordinates V^-1 x past the rank are
        0, or None if A x = b is inconsistent. q is D times the lcm of
        the denominators of b, so num is not reduced; x_j has the sign
        of num_j, which is all that a cone or wall-side test reads."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        den = 1
        if not all(type(x) is int for x in b):
            den = math.lcm(*(Fraction(x).denominator for x in b))
            b = [int(x * den) for x in b]
        ub = [sum(u * x for u, x in zip(row, b)) for row in self.U]
        if any(ub[self.rank:]):
            return None
        return ([sum(v * y for v, y in zip(row, ub)) for row in self.VS],
                self.D * den)

    def solve(self, b: Sequence) -> Optional[list[Fraction]]:
        """`scaled_solve` as Fractions: the rational x with A x = b whose
        coordinates V^-1 x past the rank are 0, or None if A x = b is
        inconsistent."""
        scaled = self.scaled_solve(b)
        if scaled is None:
            return None
        num, q = scaled
        return [Fraction(x, q) for x in num]

    def scaled_inverse(self) -> list[list[int]]:
        """D A^{-1} = VS U, in integers. No smaller positive multiple of
        A^{-1} is integral, since D is the exponent of Z^n / A Z^n."""
        n, U = self.cols, self.U
        if self.rows != n or self.rank < n:
            raise DependentGeneratorsError("matrix is singular or not square")
        return [[sum(row[k] * U[k][j] for k in range(n)) for j in range(n)]
                for row in self.VS]

    def inverse(self) -> list[list[Fraction]]:
        """A^{-1} = VS U / D over Q."""
        D = self.D
        return [[Fraction(x, D) for x in row] for row in self.scaled_inverse()]


def snf_kernel_basis(A: Sequence[Sequence[int]]) -> list[Vec]:
    """Saturated integral basis of ker(A) in Z^cols.

    Requires full row rank over Q; the returned vectors are columns of a
    unimodular matrix, hence primitive, and every integral kernel vector
    is an integer combination of them.
    """
    return SmithFactor(A).kernel_basis()


def integral(x: Optional[Sequence[Fraction]]) -> Optional[list[int]]:
    """x as ints when every entry is an integer, else None. For
    x = SmithFactor(A).solve(b) it is None exactly when A x = b has no
    integral solution."""
    if x is None or any(c.denominator != 1 for c in x):
        return None
    return [c.numerator for c in x]


def integer_solve(A: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[list[int]]:
    """One integral solution x of A x = b, or None if none exists."""
    return integral(SmithFactor(A).solve(b))


def solve_unique(A: Sequence[Sequence], b: Sequence) -> Optional[list[Fraction]]:
    """Solve A x = b when the columns of A are independent.

    Returns None if the system is inconsistent; raises
    DependentGeneratorsError if the columns are dependent.
    """
    factor = SmithFactor(A)
    if factor.rank < factor.cols:
        raise DependentGeneratorsError("generators are linearly dependent")
    return factor.solve(b)


def det(A: Sequence[Sequence[int]]) -> int:
    """eps d_1 ... d_n from the Smith form of the square matrix A."""
    return SmithFactor(A).det


def cone_coefficients(generators: Sequence[Sequence], v: Sequence) -> Optional[list[Fraction]]:
    """Coefficients of v on independent generators, if all nonnegative.

    Returns the unique c with v = sum c_k g_k when every c_k >= 0, and
    None when v is outside the cone (negative coefficient or outside the
    span).
    """
    if not generators:
        raise DependentGeneratorsError("no generators")
    c = solve_unique([[g[j] for g in generators] for j in range(len(v))], v)
    if c is None or any(x < 0 for x in c):
        return None
    return c


def cone_index(generators: Sequence[Sequence[int]]) -> int:
    """|N / (Z-span of n independent generators)| = |det|."""
    n = len(generators)
    if n == 0 or any(len(g) != n for g in generators):
        raise DependentGeneratorsError("need n generators in Z^n")
    d = det(generators)
    if d == 0:
        raise DependentGeneratorsError("generators are linearly dependent")
    return abs(d)


def primitive_vector(v: Sequence[int]) -> Vec:
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(x // g for x in v)


def lattice_generates(vectors: Sequence[Sequence[int]], n: int) -> bool:
    """True iff the given vectors generate Z^n over Z: rank n, every d_i 1."""
    factor = SmithFactor([[v[i] for v in vectors] for i in range(n)])
    return factor.rank == n and factor.D == 1
