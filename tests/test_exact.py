"""Exact linear algebra: Smith normal form, kernels, cones."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbimirror.exact import (DependentGeneratorsError, EmptyMatrixError,
                              RankDeficientError, SmithFactor,
                              cone_coefficients, cone_index, coordinates,
                              det, integer_solve, integral,
                              lattice_generates, primitive_vector, rank,
                              smith_normal_form, snf_kernel_basis,
                              solve_unique)

matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_snf_decomposition(A):
    U, S, V, eps = smith_normal_form(A)
    assert mat_mul(mat_mul(U, A), V) == S
    assert abs(det(U)) == 1 and abs(det(V)) == 1
    assert eps == leibniz_det(U) * leibniz_det(V)
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    for i in range(len(S)):
        for j in range(len(S[0])):
            if i != j:
                assert S[i][j] == 0
    nz = [d for d in diag if d]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


def test_snf_empty():
    with pytest.raises(EmptyMatrixError):
        smith_normal_form([])


def test_non_integral_entries_raise():
    # a non-integral entry used to be truncated: S = [[0]] for [[1/2]],
    # and [1] "solved" (3/2) x = 1
    with pytest.raises(ValueError):
        smith_normal_form([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        integer_solve([[Fraction(3, 2)]], [1])
    U, S, V, eps = smith_normal_form([[Fraction(2)]])
    assert (U, S, V, eps) == ([[1]], [[2]], [[1]], 1)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_kernel_basis(A):
    r = rank(A)
    if r < len(A):
        with pytest.raises(RankDeficientError):
            snf_kernel_basis(A)
        return
    K = snf_kernel_basis(A)
    assert len(K) == len(A[0]) - len(A)
    for k in K:
        assert all(sum(a * x for a, x in zip(row, k)) == 0 for row in A)


def test_kernel_known():
    assert snf_kernel_basis([[1, -1, 0], [0, 2, -1]]) == [(1, 1, 2)]


@settings(max_examples=150, deadline=None)
@given(matrices, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_integer_solve_roundtrip(A, x):
    x = (x * 4)[:len(A[0])]
    b = [sum(a * v for a, v in zip(row, x)) for row in A]
    sol = integer_solve(A, b)
    assert sol is not None
    assert [sum(a * v for a, v in zip(row, sol)) for row in A] == b


def test_integer_solve_unsolvable():
    assert integer_solve([[2]], [1]) is None
    assert integer_solve([[1, 0], [1, 0]], [0, 1]) is None


square = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(square, st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                        min_size=1, max_size=6))
def test_one_factor_solves_every_right_hand_side(A, bs):
    # one factorization serves every b; for nonsingular A the integral
    # solution exists exactly when the rational one is integral
    factor = SmithFactor(A)
    if det(A) == 0:
        with pytest.raises(DependentGeneratorsError):
            factor.inverse()
        return
    n = len(A)
    inv = factor.inverse()
    assert mat_mul(A, inv) == [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        assert [row[k] for row in inv] == solve_unique(A, [int(i == k) for i in range(n)])
    for b in bs:
        b = b[:len(A)]
        want = solve_unique(A, b)
        assert factor.solve(b) == want
        got = integral(want)
        if all(x.denominator == 1 for x in want):
            assert got == want
        else:
            assert got is None
        assert got == integer_solve(A, b)
    assert factor.kernel_basis() == snf_kernel_basis(A) == []


@settings(max_examples=200, deadline=None)
@given(square)
def test_scaled_inverse_is_the_least_integral_multiple(A):
    # D A^-1 is integral, and (D/p) A^-1 is not for any prime p dividing
    # D: D is the exponent of the group Z^n / A Z^n
    assume(det(A) != 0)
    factor = SmithFactor(A)
    n, D = len(A), factor.D
    scaled = factor.scaled_inverse()
    assert all(type(x) is int for row in scaled for x in row)
    assert mat_mul(A, scaled) == [[D * int(i == j) for j in range(n)]
                                  for i in range(n)]
    primes = [p for p in range(2, D + 1)
              if D % p == 0 and all(p % q for q in range(2, p))]
    for p in primes:
        assert any(x % p for row in scaled for x in row), p


def test_inverse_of_singular_or_non_square_matrix_raises():
    for A in ([[1, 2], [2, 4]], [[0]], [[1, 0, 0], [0, 1, 0]], [[1], [0]]):
        with pytest.raises(DependentGeneratorsError):
            SmithFactor(A).inverse()


def test_solve_unique():
    A = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(2)]]
    assert solve_unique(A, [Fraction(1), Fraction(3)]) == [Fraction(1), Fraction(1)]
    # inconsistent overdetermined system
    B = [[Fraction(1)], [Fraction(1)]]
    assert solve_unique(B, [Fraction(0), Fraction(1)]) is None
    with pytest.raises(DependentGeneratorsError):
        solve_unique([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                     [Fraction(0), Fraction(0)])


def leibniz_det(A):
    n = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        p = Fraction(1)
        for i in range(n):
            p *= A[i][perm[i]]
        total += sign * p
    return total


def minor_rank(A):
    """Rank over Q as the size of the largest nonzero minor."""
    rows, cols = len(A), len(A[0])
    for k in range(min(rows, cols), 0, -1):
        for I in itertools.combinations(range(rows), k):
            for J in itertools.combinations(range(cols), k):
                if leibniz_det([[A[i][j] for j in J] for i in I]):
                    return k
    return 0


def gauss_jordan(A, b):
    """The x with A x = b over Q, for A with independent columns, or
    None when the system is inconsistent."""
    rows, cols = len(A), len(A[0])
    M = [[Fraction(a) for a in row] + [Fraction(c)] for row, c in zip(A, b)]
    for j in range(cols):
        p = next(i for i in range(j, rows) if M[i][j])
        M[j], M[p] = M[p], M[j]
        M[j] = [a / M[j][j] for a in M[j]]
        for i in range(rows):
            if i != j and M[i][j]:
                M[i] = [a - M[i][j] * c for a, c in zip(M[i], M[j])]
    if any(M[i][cols] for i in range(cols, rows)):
        return None
    return [M[j][cols] for j in range(cols)]


# rank-deficient inputs on purpose: the last column or row becomes the
# sum of the others; b is A v or v itself, integral or rational
right_hand_sides = (
    matrices, st.sampled_from(("as drawn", "column sum", "row sum")),
    st.lists(st.fractions(-5, 5, max_denominator=4), min_size=4, max_size=4),
    st.booleans(), st.booleans())


def system(A, dependence, v, integer, in_image):
    rows, cols = len(A), len(A[0])
    if dependence == "column sum" and cols > 1:
        A = [row[:-1] + [sum(row[:-1])] for row in A]
    if dependence == "row sum" and rows > 1:
        A = A[:-1] + [[sum(col) for col in zip(*A[:-1])]]
    if integer:
        v = [int(x) for x in v]
    b = [sum(a * x for a, x in zip(row, v)) for row in A] if in_image else v[:rows]
    return A, b


@settings(max_examples=300, deadline=None)
@given(*right_hand_sides)
def test_solves_against_minor_ranks(A, dependence, v, integer, in_image):
    A, b = system(A, dependence, v, integer, in_image)
    cols = len(A[0])
    r = minor_rank(A)
    consistent = minor_rank([row + [c] for row, c in zip(A, b)]) == r
    x = SmithFactor(A).solve(b)
    assert (x is None) == (not consistent)
    if x is not None:
        assert [sum(a * c for a, c in zip(row, x)) for row in A] == b
    if r < cols:
        with pytest.raises(DependentGeneratorsError):
            solve_unique(A, b)
        with pytest.raises(DependentGeneratorsError):
            coordinates(list(zip(*A)), b)
    else:
        assert solve_unique(A, b) == coordinates(list(zip(*A)), b) == x


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_against_leibniz(A):
    assert det(A) == leibniz_det(A)


def test_cone_coefficients():
    gens = [(1, 0), (-1, 2)]
    assert cone_coefficients(gens, (0, 1)) == [Fraction(1, 2), Fraction(1, 2)]
    assert cone_coefficients(gens, (0, -1)) is None
    assert cone_coefficients([(1, 0)], (0, 1)) is None  # outside the span


def test_cone_index():
    assert cone_index([(1, 0), (-1, 2)]) == 2
    assert cone_index([(1, 0), (0, 1)]) == 1
    with pytest.raises(DependentGeneratorsError):
        cone_index([(1, 0), (2, 0)])


def test_primitive_vector():
    assert primitive_vector((2, 4, -6)) == (1, 2, -3)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_lattice_generates():
    assert lattice_generates([(1, 0), (-1, 2), (0, -1)], 2)
    assert not lattice_generates([(2, 0), (0, 2)], 2)
    assert not lattice_generates([(2,), (-2,)], 1)


@settings(max_examples=300, deadline=None)
@given(*right_hand_sides)
def test_scaled_solve_is_the_solve_over_a_positive_denominator(
        A, dependence, v, integer, in_image):
    A, b = system(A, dependence, v, integer, in_image)
    factor = SmithFactor(A)
    scaled, x = factor.scaled_solve(b), factor.solve(b)
    assert (scaled is None) == (x is None)
    if x is None:
        return
    num, q = scaled
    assert type(q) is int and q > 0
    assert all(type(c) is int for c in num)
    assert x == [Fraction(c, q) for c in num]
    if minor_rank(A) == len(A[0]):
        # the unique solution: the numerators have its signs, which is
        # all that a cone or wall-side test reads
        want = gauss_jordan(A, b)
        assert [(c > 0) - (c < 0) for c in num] == [(c > 0) - (c < 0) for c in want]
