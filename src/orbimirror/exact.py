"""Exact integer and rational linear algebra.

Everything in this module works over arbitrary-precision integers and
`fractions.Fraction`; no floating point. The central tool is the Smith
normal form U A V = S, which gives saturated kernel bases of integer
matrices, integral solvability tests and rational inverses
A^{-1} = V S^{-1} U. Read for the generators B of a simplicial cone, it
also gives the cone's Box group: Z^n / B Z^n is isomorphic to the
product of the Z/d_i on the diagonal of S.
"""

from __future__ import annotations

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


def smith_normal_form(A: Sequence[Sequence[int]]):
    """Return (U, S, V) with U*A*V = S diagonal, U and V unimodular.

    Diagonal entries of S are nonnegative and each divides the next.
    """
    rows = len(A)
    if rows == 0 or len(A[0]) == 0:
        raise EmptyMatrixError("matrix has no entries")
    cols = len(A[0])
    S = [list(map(int, row)) for row in A]
    if any(len(row) != cols for row in S):
        raise ValueError("ragged matrix")
    U = _identity(rows)
    V = _identity(cols)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

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
            t += 1
    return U, S, V


def rank(A: Sequence[Sequence[int]]) -> int:
    return SmithFactor(A).rank


class SmithFactor:
    """U A V = S for one integer matrix A, computed once and reused by
    every kernel basis and integral solve of A."""

    def __init__(self, A: Sequence[Sequence[int]]):
        self.U, self.S, self.V = smith_normal_form(A)
        self.rows, self.cols = len(A), len(A[0])
        self.rank = sum(1 for i in range(min(self.rows, self.cols)) if self.S[i][i])

    def kernel_basis(self) -> list[Vec]:
        """Saturated integral basis of ker(A); see snf_kernel_basis."""
        if self.rank < self.rows:
            raise RankDeficientError("matrix rows are linearly dependent")
        V, cols = self.V, self.cols
        return [tuple(V[i][j] for i in range(cols)) for j in range(self.rank, cols)]

    def solve(self, b: Sequence[int]) -> Optional[list[int]]:
        """One integral solution x of A x = b, or None if none exists."""
        U, S, V, rows, cols = self.U, self.S, self.V, self.rows, self.cols
        ub = [sum(U[i][k] * b[k] for k in range(rows)) for i in range(rows)]
        y = [0] * cols
        for i in range(rows):
            d = S[i][i] if i < cols else 0
            if d == 0:
                if ub[i]:
                    return None
            else:
                if ub[i] % d:
                    return None
                y[i] = ub[i] // d
        return [sum(V[i][j] * y[j] for j in range(cols)) for i in range(cols)]

    def inverse(self) -> list[list[Fraction]]:
        """A^{-1} = V S^{-1} U over Q; every d_i divides D = d_n."""
        n, U, S, V = self.cols, self.U, self.S, self.V
        if self.rows != n or self.rank < n:
            raise DependentGeneratorsError("matrix is singular or not square")
        D = S[n - 1][n - 1]
        VS = [[V[i][k] * (D // S[k][k]) for k in range(n)] for i in range(n)]
        return [[Fraction(sum(VS[i][k] * U[k][j] for k in range(n)), D)
                 for j in range(n)] for i in range(n)]


def snf_kernel_basis(A: Sequence[Sequence[int]]) -> list[Vec]:
    """Saturated integral basis of ker(A) in Z^cols.

    Requires full row rank over Q; the returned vectors are columns of a
    unimodular matrix, hence primitive, and every integral kernel vector
    is an integer combination of them.
    """
    return SmithFactor(A).kernel_basis()


def integer_solve(A: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[list[int]]:
    """One integral solution x of A x = b, or None if none exists."""
    return SmithFactor(A).solve(b)


def solve_unique(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Solve A x = b when the columns of A are independent.

    Returns None if the system is inconsistent; raises
    DependentGeneratorsError if the columns are dependent.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [[Fraction(A[i][j]) for j in range(cols)] + [Fraction(b[i])] for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if M[i][c]), None)
        if p is None:
            raise DependentGeneratorsError("generators are linearly dependent")
        M[r], M[p] = M[p], M[r]
        inv = 1 / M[r][c]
        M[r] = [a * inv for a in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * bb for a, bb in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, rows):
        if M[i][cols]:
            return None
    return [M[i][cols] for i in range(cols)]


def det(A: Sequence[Sequence]) -> Fraction:
    """Determinant by Gaussian elimination over Fractions, on a copy."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    sign = 1
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            sign = -sign
        d *= M[c][c]
        inv = 1 / M[c][c]
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c] * inv
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return sign * d


def coordinates(vectors: Sequence[Sequence], w: Sequence) -> Optional[list[Fraction]]:
    """The unique c with w = sum c_k vectors[k], for independent vectors,
    or None when w is outside their span."""
    return solve_unique([[v[j] for v in vectors] for j in range(len(w))], w)


def cone_coefficients(generators: Sequence[Sequence], v: Sequence) -> Optional[list[Fraction]]:
    """Coefficients of v on independent generators, if all nonnegative.

    Returns the unique c with v = sum c_k g_k when every c_k >= 0, and
    None when v is outside the cone (negative coefficient or outside the
    span).
    """
    if not generators:
        raise DependentGeneratorsError("no generators")
    c = coordinates(generators, v)
    if c is None or any(x < 0 for x in c):
        return None
    return c


def cone_index(generators: Sequence[Sequence[int]]) -> int:
    """|N / (Z-span of n independent generators)| = |det|."""
    n = len(generators)
    if n == 0 or any(len(g) != n for g in generators):
        raise DependentGeneratorsError("need n generators in Z^n")
    d = det([[g[i] for i in range(n)] for g in generators])
    if d == 0:
        raise DependentGeneratorsError("generators are linearly dependent")
    return abs(int(d))


def primitive_vector(v: Sequence[int]) -> Vec:
    from math import gcd

    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(x // g for x in v)


def lattice_generates(vectors: Sequence[Sequence[int]], n: int) -> bool:
    """True iff the given vectors generate Z^n over Z."""
    A = [[v[i] for v in vectors] for i in range(n)]
    _, S, _ = smith_normal_form(A)
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    return len([d for d in diag if d]) == n and all(d == 1 for d in diag if d)
