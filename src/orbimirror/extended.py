"""Extended stacky fans, the kernel lattice and effective-class enumeration.

The extension adjoins every Box element of age <= 1 as an extra lattice
vector b_{m+1}..b_{m'}. The kernel lattice L of the resulting map
Z^{m'} -> N carries a basis d_1..d_{r'} with d_{aj} = 0 for a <= r,
j > m; the duals give the classes D_j whose pairings drive both the
I-function and the effective-cone enumeration.
"""

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .exact import (SmithFactor, Vec, integral, lattice_generates,
                    snf_kernel_basis)
from .fan import BoxElement, InvalidFanError, StackyFan, require_valid
from .series import Roster, make_roster


class LatticeNotGeneratedError(ValueError):
    pass


class BasisShapeInfeasibleError(ValueError):
    pass


class EnumerationUnboundedError(ValueError):
    pass


class EnumerationUnit(NamedTuple):
    """The class u of a max cone sigma and a free index j (not in sigma)
    with <D_j, u> = 1 and <D_k, u> = 0 for the other free indices k, in
    integer numerators over L = `ExtendedFanData.den`."""

    delta: tuple[int, ...]   # L * coordinates in the d_a basis
    c: int                   # L * sum_j <D_j, u> over j = 1..m'


class ExtendedFanData:
    """The extended stacky fan of `build_extended`.

    A plain class with a `__dict__`, like `StackyFan`, so that the Smith
    data of the basis (`basis_factor`, `cone_inverses`), `den` and
    `cone_units` are computed on first use and kept on the instance.
    """

    def __init__(self, fan: StackyFan, extra: tuple[BoxElement, ...],
                 basis: tuple[Vec, ...],
                 dtilde: tuple[tuple[Fraction, ...], ...]):
        self.fan = fan
        self.extra = extra            # age <= 1, in ray order m+1..m'
        self.basis = basis            # d_1..d_{r'}, integer entries, length m'
        self.dtilde = dtilde          # a > r: push-forward in d_1..d_r, in [0, 1)^r
        self.m = fan.n_rays
        self.m_prime = self.m + len(extra)
        self.r = self.m - fan.dim
        self.r_prime = self.m_prime - fan.dim

    @property
    def dim(self) -> int:
        return self.fan.dim

    def all_vectors(self) -> list[Vec]:
        return list(self.fan.stacky_vectors) + [el.nu for el in self.extra]

    # Kept on the instance, as `StackyFan.box` is, so they go with the data.
    @cached_property
    def basis_factor(self) -> SmithFactor:
        """The Smith factor of the m' x r' matrix whose columns are
        d_1..d_{r'}: its `solve` gives a class's coordinates in the basis.
        The columns are independent, so a solution is unique."""
        return SmithFactor(list(zip(*self.basis)))

    @cached_property
    def cone_inverses(self) -> tuple[tuple[list[int], int, list[list[int]]], ...]:
        """(free, D, D B^-1) of each max cone sigma, in `fan.max_cones`
        order: free lists the r' indices j not in sigma, B is the
        r' x r' matrix basis[a][free[i]] and D its largest Smith
        invariant, the least multiplier that makes D B^-1 integral.
        Row i of B^-1 gives the unit of free[i] (`cone_units`) and the
        Hori-Vafa exponents of ray free[i] when sigma is the gauge cone
        (`mirror.hori_vafa`); no weight is tested here."""
        out = []
        for sigma in self.fan.max_cones:
            free = [j for j in range(self.m_prime) if j not in sigma]
            factor = SmithFactor([[d[k] for k in free] for d in self.basis])
            out.append((free, factor.D, factor.scaled_inverse()))
        return tuple(out)

    @cached_property
    def den(self) -> int:
        """L = lcm of the D of every max cone (`cone_inverses`), the least
        common denominator of the units; K_eff lies in (1/L)Z^r'."""
        return math.lcm(*(D for _, D, _ in self.cone_inverses))

    @cached_property
    def cone_units(self) -> tuple[tuple[EnumerationUnit, ...], ...]:
        """The enumeration units of each max cone, in `fan.max_cones`
        order, one per free index; every unit has positive weight.

        With B the matrix of `cone_inverses`, the unit of the i-th free
        index has delta = row i of B^-1, so that <D_k, u> = (delta B)_k
        is 1 at that index and 0 at the others. Its weight, the row sum
        of D B^-1 over D, must be positive; every weight is tested
        before any unit is built. In numerators over L = `den`, delta is
        row i of D B^-1 times L/D, and c is delta dotted with the row
        sums of the basis.
        """
        for sigma, (free, D, rows) in zip(self.fan.max_cones, self.cone_inverses):
            for j, row in zip(free, rows):
                if sum(row) <= 0:
                    raise EnumerationUnboundedError(
                        f"direction {j} of cone {sigma} has nonpositive weight "
                        f"{Fraction(sum(row), D)}")
        L = self.den
        sums = [sum(d) for d in self.basis]
        out = []
        for _, D, rows in self.cone_inverses:
            deltas = [tuple(x * (L // D) for x in row) for row in rows]
            out.append(tuple(EnumerationUnit(delta, sum(map(operator.mul, delta, sums)))
                             for delta in deltas))
        return tuple(out)


def _chart_roster(ext: ExtendedFanData, order) -> Roster:
    """The roster of the chart coordinates y_a, each with the lcm of the
    delta_a-denominators over K_eff up to weight `order` (an int or a
    Fraction).

    Every class is a sum, with multiplicities k >= 1, of units of one max
    cone, and each of those units has positive weight at most the
    class's; each unit is itself a class. So the lcm over K_eff equals
    the lcm over the units of weight <= order across all max cones, and
    no element list is needed. A numerator x over L = `ext.den` has the
    denominator L / gcd(x, L).
    """
    L = ext.den
    cap = order.numerator * L // order.denominator
    dens = [1] * ext.r_prime
    for units in ext.cone_units:
        for u in units:
            if sum(u.delta) <= cap:
                dens = [math.lcm(d, L // math.gcd(x, L)) for d, x in zip(dens, u.delta)]
    return make_roster([f"y{a + 1}" for a in range(ext.r_prime)], dens,
                       [False] * ext.r_prime)


def _nef_base_basis(kernel: list[Vec], walls: list[Vec]) -> list[Vec]:
    """A unimodular basis of the base kernel on which every wall class has
    nonnegative coordinates.

    The wall classes span the Mori cone (Reid, "Decomposition of toric
    morphisms", 1983), so a nef basis inside that cone can only be its
    primitive extremal wall classes. For kernel rank r <= 2 the candidates
    are the r-subsets of the distinct primitive wall classes, each ordered
    by (c1, lex); at most one of them qualifies. For r > 2, where the
    subsets grow as C(|walls|, r), the one candidate is the SNF kernel
    basis in its own order. One Smith factor of the kernel solves for
    every wall and candidate, and one of each candidate for every wall.
    The nef test reads only signs, so it solves for each wall's
    coordinates times a positive integer (`SmithFactor.scaled_solve`).
    """
    r = len(kernel)
    on_kernel = SmithFactor(list(zip(*kernel)))
    wcoords = {w: on_kernel.scaled_solve(w) for w in walls}
    if None in wcoords.values():
        raise BasisShapeInfeasibleError("wall class not in the kernel lattice span")
    candidates = [kernel] if r > 2 else [
        sorted(s, key=lambda v: (sum(v), v))
        for s in itertools.combinations(sorted(wcoords), r)]
    for cand in candidates:
        on_cand = SmithFactor(list(zip(*map(on_kernel.solve, cand))))
        if abs(on_cand.det) == 1 and all(min(on_cand.scaled_solve(num)[0]) >= 0
                                         for num, _ in wcoords.values()):
            return [tuple(v) for v in cand]
    raise BasisShapeInfeasibleError(
        f"no nef unimodular basis of kernel rank {r} among the candidates")


def build_extended(fan: StackyFan) -> ExtendedFanData:
    """The extended stacky fan of `fan`: its age <= 1 Box elements adjoined
    as extra vectors, with a basis of the extended kernel lattice.

    The first r basis vectors are the nef base basis d_1..d_r, padded
    with zeros. The vector of the k-th extra nu_k is
    e_{m+k} - c_k + sum_a z_a d_a, where c_k is one integral solution of
    sum_j c_kj b_j = nu_k and z is chosen exactly: with t_k the
    expansion of nu_k over the rays of its minimal cone, t_k - c_k is a
    rational relation among the rays, s_k are its coordinates in
    d_1..d_r (one Smith factor of the nef basis solves for every extra)
    and z = -floor(s_k). The push-forward of the vector to the base
    kernel is then dtilde_k = s_k - floor(s_k), which lies in [0, 1)^r.
    """
    require_valid(fan)
    n = fan.dim
    m = fan.n_rays
    extra = tuple(el for el in fan.box if el.age <= 1)
    m_prime = m + len(extra)
    vectors = list(fan.stacky_vectors) + [el.nu for el in extra]
    if not lattice_generates(vectors, n):
        raise LatticeNotGeneratedError(
            "stacky vectors and age<=1 Box elements do not generate the lattice")
    base = SmithFactor([[fan.stacky_vectors[j][i] for j in range(m)]
                        for i in range(n)])
    # the primitive integer wall relations that validation kept
    base_basis = _nef_base_basis(base.kernel_basis(),
                                 [w for _, _, w in fan.report.walls])
    on_nef = SmithFactor(list(zip(*base_basis)))
    basis: list[Vec] = [tuple(d) + (0,) * len(extra) for d in base_basis]
    dtilde = []
    for k, el in enumerate(extra):
        c = integral(base.solve(el.nu))
        if c is None:
            raise BasisShapeInfeasibleError(
                f"Box element {el.nu} is not an integer combination of the rays")
        t = [Fraction(0)] * m
        for j, tj in zip(el.cone, el.t):
            t[j] = tj
        # t - c is a rational relation, so it lies in the span of d_1..d_r
        s = on_nef.solve([tj - cj for tj, cj in zip(t, c)])
        z = [-math.floor(x) for x in s]
        d = [sum(za * b[j] for za, b in zip(z, base_basis)) - c[j]
             for j in range(m)] + [0] * len(extra)
        d[m + k] = 1
        basis.append(tuple(d))
        dtilde.append(tuple(x + za for x, za in zip(s, z)))
    # every basis vector must be a relation
    for d in basis:
        for i in range(n):
            assert sum(d[j] * vectors[j][i] for j in range(m_prime)) == 0
    ext = ExtendedFanData(fan, extra, tuple(basis), tuple(dtilde))
    # saturation: each SNF kernel vector of the full matrix must be an
    # integer combination of the chosen basis
    full_matrix = [[vectors[j][i] for j in range(m_prime)] for i in range(n)]
    saturation = snf_kernel_basis(full_matrix)
    if any(integral(ext.basis_factor.solve(kv)) is None for kv in saturation):
        raise BasisShapeInfeasibleError("chosen basis does not saturate the kernel")
    return ext


class KEffElement(NamedTuple):
    """An effective class, with numerators over L = `ExtendedFanData.den`."""
    delta: tuple[int, ...]           # L * coordinates in the d_a basis
    pairings: tuple[int, ...]        # L * <D_j, d> for j = 1..m'
    nu: Vec                          # twisted sector (zero vector if none)
    zweight: int                     # w(d) = sum ceil <D_j, d>


def keff_enumerate(ext: ExtendedFanData, bound,
                   max_c=None) -> list[KEffElement]:
    """All effective classes of weight sum(delta) <= bound, and of
    c(d) <= max_c unless max_c is None, where c(d) = sum_j <D_j, d> over
    all m' indices; bound and max_c are ints or Fractions.

    A class d belongs to K_eff iff the set J of indices with
    <D_j, d> not in Z_{>=0} consists of base rays spanning a cone of the
    fan. Enumeration runs over (max cone sigma, nonnegative integer
    multiplicities on the units `ext.cone_units`), which realizes exactly
    these classes.

    c is additive over the units. In a cone whose units all have c >= 0
    the partial sums only grow, so the recursion stops as soon as
    c > max_c. A cone with a unit of c < 0 (the non-Fano Hirzebruch
    surfaces F_3 and F_4 have them) is enumerated in full up to the
    weight bound and each class is kept only if c <= max_c. Either way
    the result is exactly K_eff with weight <= bound and c <= max_c.

    The units are integer numerators over L = `ext.den`, so the
    recursion, the deduplication, the sector and z-weight of a class and
    the class itself are integers, and no `Fraction` is built per class.
    With W_j = L <D_j, d>, the sector is sum_j ((-W_j) mod L) v_j / L and
    the z-weight sum_j ceil(W_j / L).

    The z-weight is c(d) + age(nu), with age 0 on the untwisted sector:
    ceil <D_j, d> - <D_j, d> is the fractional part f_j of -<D_j, d>,
    which is 0 off J, so nu = sum_{j in J} f_j b_j. The b_j of J are
    independent rays of a cone of the fan and each f_j is in [0, 1), so
    the f_j are nu's coordinates as a Box element, whose sum is its age.
    """
    cone_units, L = ext.cone_units, ext.den
    w_cap = bound.numerator * L // bound.denominator
    c_cap = math.inf if max_c is None else max_c.numerator * L // max_c.denominator
    n, m_prime = ext.dim, ext.m_prime
    vectors = ext.all_vectors()
    columns = [[d[j] for d in ext.basis] for j in range(m_prime)]
    box_nus = {el.nu for el in ext.fan.box}
    zero = (0,) * n
    seen: dict[tuple[int, ...], KEffElement] = {}

    def add_class(delta: tuple[int, ...]) -> None:
        pair = [sum(map(operator.mul, delta, col)) for col in columns]
        nu = []
        for i in range(n):
            s = sum((-p) % L * v[i] for p, v in zip(pair, vectors))
            assert s % L == 0
            nu.append(s // L)
        nu = tuple(nu)
        if nu != zero and nu not in box_nus:
            raise InvalidFanError(f"sector {nu} of class "
                                  f"{tuple(Fraction(x, L) for x in delta)} "
                                  "is not a Box element")
        seen[delta] = KEffElement(delta, tuple(pair), nu,
                                  -sum((-p) // L for p in pair))

    for units in cone_units:
        steps = [(u.delta, sum(u.delta), u.c) for u in units]
        last = len(steps)
        c_limit = c_cap if all(u.c >= 0 for u in units) else math.inf

        def rec(idx: int, delta: tuple[int, ...], weight: int, c: int) -> None:
            if idx == last:
                if c <= c_cap and delta not in seen:
                    add_class(delta)
                return
            step, w_step, c_step = steps[idx]
            while weight <= w_cap and c <= c_limit:
                rec(idx + 1, delta, weight, c)
                delta = tuple(map(operator.add, delta, step))
                weight += w_step
                c += c_step

        rec(0, (0,) * ext.r_prime, 0, 0)
    return [seen[d] for d in sorted(seen, key=lambda d: (sum(d), d))]
