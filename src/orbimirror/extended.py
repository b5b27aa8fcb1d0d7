"""Extended stacky fans, the kernel lattice and effective-class enumeration.

The extension adjoins every Box element of age <= 1 as an extra lattice
vector b_{m+1}..b_{m'}. The kernel lattice L of the resulting map
Z^{m'} -> N carries a basis d_1..d_{r'} with d_{aj} = 0 for a <= r,
j > m; the duals give the classes D_j whose pairings drive both the
I-function and the effective-cone enumeration.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .exact import (SmithFactor, Vec, integral, lattice_generates,
                    primitive_vector, snf_kernel_basis)
from .fan import (BoxElement, InvalidFanError, StackyFan, require_valid,
                  wall_curve_classes)


class LatticeNotGeneratedError(ValueError):
    pass


class BasisShapeInfeasibleError(ValueError):
    pass


class EnumerationUnboundedError(ValueError):
    pass


class EnumerationUnit(NamedTuple):
    """The class u of a max cone sigma and a free index j (not in sigma)
    with <D_j, u> = 1 and <D_k, u> = 0 for the other free indices k."""

    pairings: tuple[Fraction, ...]   # <D_j, u> for j = 1..m'
    delta: tuple[Fraction, ...]      # coordinates in the d_a basis
    weight: Fraction                 # sum of delta
    c: Fraction                      # sum of the pairings


class ExtendedFanData:
    """The extended stacky fan of `build_extended`.

    A plain class with a `__dict__`, like `StackyFan`, so that `den` and
    `cone_units` are computed on first use and kept on the instance.
    Equality and hashing read the ten fields only.
    """

    def __init__(self, fan: StackyFan, box: tuple[BoxElement, ...],
                 extra: tuple[BoxElement, ...], basis: tuple[Vec, ...],
                 t_extra: tuple[tuple[Fraction, ...], ...],
                 dtilde: tuple[tuple[Fraction, ...], ...],
                 m: int, m_prime: int, r: int, r_prime: int):
        self.fan = fan
        self.box = box                # all of Box'
        self.extra = extra            # age <= 1, in ray order m+1..m'
        self.basis = basis            # d_1..d_{r'}, integer entries, length m'
        self.t_extra = t_extra        # extras expanded over base rays
        self.dtilde = dtilde          # a > r: push-forward in d_1..d_r, in [0, 1)^r
        self.m = m
        self.m_prime = m_prime
        self.r = r
        self.r_prime = r_prime

    def _key(self) -> tuple:
        return (self.fan, self.box, self.extra, self.basis, self.t_extra,
                self.dtilde, self.m, self.m_prime, self.r, self.r_prime)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return ("ExtendedFanData(fan=%r, box=%r, extra=%r, basis=%r, "
                "t_extra=%r, dtilde=%r, m=%r, m_prime=%r, r=%r, r_prime=%r)"
                % self._key())

    @property
    def dim(self) -> int:
        return self.fan.dim

    def all_vectors(self) -> list[Vec]:
        return list(self.fan.stacky_vectors) + [el.nu for el in self.extra]

    def pairing(self, j: int, delta: Sequence[Fraction]) -> Fraction:
        """<D_j, d> for d = sum delta_a d_a."""
        return sum(Fraction(da) * self.basis[a][j] for a, da in enumerate(delta))

    @cached_property
    def den(self) -> int:
        """The lcm L of the unit delta-denominators; K_eff lies in (1/L)Z^r'."""
        return math.lcm(*(x.denominator for units in self.cone_units
                          for u in units for x in u.delta))

    # Kept on the instance, as `StackyFan.box` is, so they go with the data.
    @cached_property
    def cone_units(self) -> tuple[tuple[EnumerationUnit, ...], ...]:
        """The enumeration units of each max cone, in `fan.max_cones`
        order, one per free index; every unit has positive weight.

        The free indices of sigma are the r' indices outside it. With
        B the r' x r' matrix basis[a][k] over the free k, the unit of
        the i-th free index has delta = row i of B^-1, so that
        <D_k, u> = (delta B)_k is 1 at that index and 0 at the others.
        The weight is tested first, and the pairings are computed in
        integers over the denominator L of delta, as in `keff_enumerate`.
        """
        columns = [[d[k] for d in self.basis] for k in range(self.m_prime)]
        out = []
        for sigma in self.fan.max_cones:
            free = [j for j in range(self.m_prime) if j not in sigma]
            inv = SmithFactor([[d[k] for k in free] for d in self.basis]).inverse()
            units = []
            for j, delta in zip(free, inv):
                L = math.lcm(*(x.denominator for x in delta))
                ints = [x.numerator * (L // x.denominator) for x in delta]
                omega = Fraction(sum(ints), L)
                if omega <= 0:
                    raise EnumerationUnboundedError(
                        f"direction {j} of cone {sigma} has nonpositive weight {omega}")
                w = [sum(map(operator.mul, ints, col)) for col in columns]
                units.append(EnumerationUnit(tuple(Fraction(x, L) for x in w),
                                             tuple(delta), omega, Fraction(sum(w), L)))
            out.append(tuple(units))
        return tuple(out)


def _scale_primitive(w: Sequence[Fraction]) -> Vec:
    den = math.lcm(*(x.denominator for x in w))
    return primitive_vector([int(x * den) for x in w])


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
    """
    r = len(kernel)
    on_kernel = SmithFactor(list(zip(*kernel)))
    wcoords = {w: on_kernel.solve(w) for w in walls}
    if None in wcoords.values():
        raise BasisShapeInfeasibleError("wall class not in the kernel lattice span")
    candidates = [kernel] if r > 2 else [
        sorted(s, key=lambda v: (sum(v), v))
        for s in itertools.combinations(sorted(wcoords), r)]
    for cand in candidates:
        on_cand = SmithFactor(list(zip(*map(on_kernel.solve, cand))))
        if abs(on_cand.det) == 1 and all(min(on_cand.solve(wc)) >= 0
                                         for wc in wcoords.values()):
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
    box = fan.box
    extra = tuple(el for el in box if el.age <= 1)
    m_prime = m + len(extra)
    vectors = list(fan.stacky_vectors) + [el.nu for el in extra]
    if not lattice_generates(vectors, n):
        raise LatticeNotGeneratedError(
            "stacky vectors and age<=1 Box elements do not generate the lattice")
    r = m - n
    r_prime = m_prime - n
    base = SmithFactor([[fan.stacky_vectors[j][i] for j in range(m)]
                        for i in range(n)])
    walls = [_scale_primitive(w.relation) for w in wall_curve_classes(fan)]
    base_basis = _nef_base_basis(base.kernel_basis(), walls)
    on_nef = SmithFactor(list(zip(*base_basis)))
    basis: list[Vec] = [tuple(d) + (0,) * len(extra) for d in base_basis]
    t_extra = []
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
        t_extra.append(tuple(t))
        dtilde.append(tuple(x + za for x, za in zip(s, z)))
    # every basis vector must be a relation
    for d in basis:
        for i in range(n):
            assert sum(d[j] * vectors[j][i] for j in range(m_prime)) == 0
    # saturation: each SNF kernel vector of the full matrix must be an
    # integer combination of the chosen basis
    full_matrix = [[vectors[j][i] for j in range(m_prime)] for i in range(n)]
    saturation = snf_kernel_basis(full_matrix)
    if saturation:
        chosen = SmithFactor([[basis[a][j] for a in range(r_prime)]
                              for j in range(m_prime)])
        if any(integral(chosen.solve(kv)) is None for kv in saturation):
            raise BasisShapeInfeasibleError("chosen basis does not saturate the kernel")
    return ExtendedFanData(fan, box, extra, tuple(basis), tuple(t_extra),
                           tuple(dtilde), m, m_prime, r, r_prime)


class KEffElement(NamedTuple):
    """An effective class, with numerators over L = `ExtendedFanData.den`."""
    delta: tuple[int, ...]           # L * coordinates in the d_a basis
    pairings: tuple[int, ...]        # L * <D_j, d> for j = 1..m'
    nu: Vec                          # twisted sector (zero vector if none)
    zweight: int                     # w(d) = sum ceil <D_j, d>
    weight: int                      # L * sum of delta (truncation weight)


def keff_enumerate(ext: ExtendedFanData, bound,
                   max_c=None) -> list[KEffElement]:
    """All effective classes of weight <= bound, and of c(d) <= max_c
    unless max_c is None, where c(d) = sum_j <D_j, d> over all m' indices.

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

    Every unit is scaled to integer numerators over L = `ext.den`, so the
    recursion, the deduplication, the sector and z-weight of a class and
    the class itself are integers, and no `Fraction` is built per class.
    With W_j = L <D_j, d>, the sector is sum_j ((-W_j) mod L) v_j / L and
    the z-weight sum_j ceil(W_j / L).
    """
    cone_units, L = ext.cone_units, ext.den
    w_cap = math.floor(Fraction(bound) * L)
    c_cap = math.inf if max_c is None else math.floor(Fraction(max_c) * L)
    n, m_prime = ext.dim, ext.m_prime
    vectors = ext.all_vectors()
    columns = [[d[j] for d in ext.basis] for j in range(m_prime)]
    box_nus = {el.nu for el in ext.box}
    zero = (0,) * n
    seen: dict[tuple[int, ...], KEffElement] = {}

    def add_class(delta: tuple[int, ...], weight: int) -> None:
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
                                  -sum((-p) // L for p in pair), weight)

    for units in cone_units:
        steps = [(tuple(int(x * L) for x in u.delta), int(u.weight * L),
                  int(u.c * L)) for u in units]
        last = len(steps)
        c_limit = c_cap if all(u.c >= 0 for u in units) else math.inf

        def rec(idx: int, delta: tuple[int, ...], weight: int, c: int) -> None:
            if idx == last:
                if c <= c_cap and delta not in seen:
                    add_class(delta, weight)
                return
            step, w_step, c_step = steps[idx]
            while weight <= w_cap and c <= c_limit:
                rec(idx + 1, delta, weight, c)
                delta = tuple(map(operator.add, delta, step))
                weight += w_step
                c += c_step

        rec(0, (0,) * ext.r_prime, 0, 0)
    return [seen[d] for d in sorted(seen, key=lambda d: (sum(d), d))]
