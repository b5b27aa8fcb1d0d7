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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (Vec, integer_solve, lattice_generates, snf_kernel_basis,
                    solve_unique)
from .fan import (BoxElement, InvalidFanError, StackyFan, require_valid,
                  wall_curve_classes)


class LatticeNotGeneratedError(ValueError):
    pass


class BasisShapeInfeasibleError(ValueError):
    pass


class EnumerationUnboundedError(ValueError):
    pass


@dataclass(frozen=True)
class ExtendedFanData:
    fan: StackyFan
    box: tuple[BoxElement, ...]          # all of Box'
    extra: tuple[BoxElement, ...]        # age <= 1, in ray order m+1..m'
    basis: tuple[Vec, ...]               # d_1..d_{r'}, integer entries, length m'
    t_extra: tuple[tuple[Fraction, ...], ...]  # extras expanded over base rays
    dtilde: tuple[tuple[Fraction, ...], ...]   # a > r: push-forward in d_1..d_r
    m: int
    m_prime: int
    r: int
    r_prime: int

    @property
    def dim(self) -> int:
        return self.fan.dim

    def all_vectors(self) -> list[Vec]:
        return list(self.fan.stacky_vectors) + [el.nu for el in self.extra]

    def pairing(self, j: int, delta: Sequence[Fraction]) -> Fraction:
        """<D_j, d> for d = sum delta_a d_a."""
        return sum(Fraction(da) * self.basis[a][j] for a, da in enumerate(delta))


def _express_in_kernel(kernel: Sequence[Vec], w: Sequence[Fraction]) -> list[Fraction]:
    m = len(w)
    A = [[Fraction(kernel[a][j]) for a in range(len(kernel))] for j in range(m)]
    sol = solve_unique(A, [Fraction(x) for x in w])
    if sol is None:
        raise BasisShapeInfeasibleError("vector not in the kernel lattice span")
    return sol


def _scale_primitive(w: Sequence[Fraction]) -> Vec:
    den = 1
    for x in w:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in w]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    return tuple(x // g for x in ints)


def _nef_base_basis(kernel: list[Vec], walls: list[Vec]) -> list[Vec]:
    """An integral basis of the base kernel on which every wall class is
    nonnegative; ordered by (c1, lex), lexicographically smallest among
    qualifying bases."""
    r = len(kernel)
    if r == 0:
        return []
    # wall classes in kernel coordinates
    wcoords = [_express_in_kernel(kernel, [Fraction(x) for x in w]) for w in walls]

    def combo(c: Sequence[int]) -> Vec:
        return tuple(sum(c[a] * kernel[a][j] for a in range(r))
                     for j in range(len(kernel[0])))

    if r == 1:
        for sign in (1, -1):
            if all(sign * wc[0] >= 0 for wc in wcoords):
                return [combo((sign,))]
        raise BasisShapeInfeasibleError("no sign makes the kernel basis nef")
    if r == 2:
        def in_wall_cone(c) -> bool:
            # c (kernel coords) must be a nonnegative combination of the
            # wall classes; in rank 2 it suffices to test pairs
            cf = [Fraction(x) for x in c]
            for wi in wcoords:
                for wj in wcoords:
                    d = wi[0] * wj[1] - wi[1] * wj[0]
                    if d == 0:
                        continue
                    al = (cf[0] * wj[1] - cf[1] * wj[0]) / d
                    be = (wi[0] * cf[1] - wi[1] * cf[0]) / d
                    if al >= 0 and be >= 0:
                        return True
            # colinear fallback
            for wi in wcoords:
                if any(wi):
                    k = None
                    ok = True
                    for x, y in zip(cf, wi):
                        if y == 0:
                            if x != 0:
                                ok = False
                            continue
                        q = x / y
                        if k is None:
                            k = q
                        elif q != k:
                            ok = False
                    if ok and k is not None and k >= 0:
                        return True
            return False

        rng = range(-4, 5)
        cands = [c for c in itertools.product(rng, rng)
                 if math.gcd(c[0], c[1]) == 1 and in_wall_cone(c)]
        best = None
        for c1 in cands:
            for c2 in cands:
                if c1[0] * c2[1] - c1[1] * c2[0] not in (1, -1):
                    continue
                ok = True
                for wc in wcoords:
                    sol = solve_unique([[Fraction(c1[0]), Fraction(c2[0])],
                                        [Fraction(c1[1]), Fraction(c2[1])]],
                                       [wc[0], wc[1]])
                    if sol is None or any(x < 0 for x in sol):
                        ok = False
                        break
                if not ok:
                    continue
                v1, v2 = combo(c1), combo(c2)
                pair = sorted([v1, v2], key=lambda v: (sum(v), v))
                if best is None or pair < best:
                    best = pair
        if best is None:
            raise BasisShapeInfeasibleError("no nef basis found in search window")
        return best
    # higher rank: accept the raw kernel basis only if already nef
    for wc in wcoords:
        if any(x < 0 for x in wc):
            raise BasisShapeInfeasibleError(
                "nef basis search not implemented for kernel rank > 2")
    return [tuple(v) for v in kernel]


def build_extended(fan: StackyFan) -> ExtendedFanData:
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
    base_matrix = [[fan.stacky_vectors[j][i] for j in range(m)] for i in range(n)]
    kernel = snf_kernel_basis(base_matrix) if r > 0 else []
    walls = [_scale_primitive(w.relation) for w in wall_curve_classes(fan)]
    base_basis = _nef_base_basis(list(kernel), walls) if r > 0 else []
    basis: list[Vec] = [tuple(list(d) + [0] * len(extra)) for d in base_basis]
    # extension vectors: nu_k = sum c_j b_j (integrally), d = e_{m+k} - c
    for k, el in enumerate(extra):
        c = integer_solve(base_matrix, list(el.nu))
        if c is None:
            raise BasisShapeInfeasibleError(
                f"Box element {el.nu} is not an integer combination of the rays")
        d = [-x for x in c] + [0] * len(extra)
        d[m + k] = 1
        # canonical representative modulo the base basis
        best = None
        shifts = itertools.product(range(-6, 7), repeat=r) if r else [()]
        for z in shifts:
            cand = list(d)
            for a, za in enumerate(z):
                cand = [x + za * y for x, y in zip(cand, basis[a])]
            key = (sum(1 for x in cand if x < 0), tuple(cand))
            if best is None or key < best:
                best = key
        basis.append(best[1])
    # every basis vector must be a relation
    for d in basis:
        for i in range(n):
            assert sum(d[j] * vectors[j][i] for j in range(m_prime)) == 0
    # saturation: each SNF kernel vector of the full matrix must be an
    # integer combination of the chosen basis
    full_matrix = [[vectors[j][i] for j in range(m_prime)] for i in range(n)]
    for kv in snf_kernel_basis(full_matrix):
        A = [[basis[a][j] for a in range(r_prime)] for j in range(m_prime)]
        if integer_solve(A, list(kv)) is None:
            raise BasisShapeInfeasibleError("chosen basis does not saturate the kernel")
    # t-expansions of the extras over the base rays
    t_extra = []
    for el in extra:
        row = [Fraction(0)] * m
        for j, t in zip(el.cone, el.t):
            row[j] = t
        t_extra.append(tuple(row))
    # push-forwards of the extended basis vectors to the base kernel
    dtilde = []
    for a in range(r, r_prime):
        v = [Fraction(basis[a][j]) for j in range(m)]
        for k in range(len(extra)):
            coef = basis[a][m + k]
            if coef:
                v = [x + coef * t for x, t in zip(v, t_extra[k])]
        if r == 0:
            if any(v):
                raise BasisShapeInfeasibleError("push-forward outside base kernel")
            dtilde.append(())
        else:
            dtilde.append(tuple(_express_in_kernel(
                [b[:m] for b in basis[:r]], v)))
    return ExtendedFanData(fan, box, extra, tuple(basis), tuple(t_extra),
                           tuple(dtilde), m, m_prime, r, r_prime)


@dataclass(frozen=True)
class KEffElement:
    delta: tuple[Fraction, ...]      # coordinates in the d_a basis
    pairings: tuple[Fraction, ...]   # <D_j, d> for j = 1..m'
    nu: Vec                          # twisted sector (zero vector if none)
    zweight: int                     # w(d) = sum ceil <D_j, d>
    weight: Fraction                 # sum of delta (truncation weight)


def _delta_of_pairings(ext: ExtendedFanData, w: Sequence[Fraction]) -> Optional[tuple]:
    A = [[Fraction(ext.basis[a][j]) for a in range(ext.r_prime)]
         for j in range(ext.m_prime)]
    sol = solve_unique(A, [Fraction(x) for x in w])
    return tuple(sol) if sol is not None else None


def keff_enumerate(ext: ExtendedFanData, bound) -> list[KEffElement]:
    """All effective classes of weight <= bound.

    A class d belongs to K_eff iff the set J of indices with
    <D_j, d> not in Z_{>=0} consists of base rays spanning a cone of the
    fan. Enumeration runs over (max cone sigma, nonnegative integer
    multiplicities on the complement), which realizes exactly these
    classes.
    """
    bound = Fraction(bound)
    n = ext.dim
    vectors = ext.all_vectors()
    seen: dict[tuple, KEffElement] = {}
    box_by_nu = {el.nu: el for el in ext.box}
    zero = (0,) * n
    for sigma in ext.fan.max_cones:
        free = [j for j in range(ext.m_prime) if j not in sigma]
        Bsig = [[Fraction(vectors[j][i]) for j in sigma] for i in range(n)]
        units = []
        for j in free:
            rhs = [Fraction(-vectors[j][i]) for i in range(n)]
            wsig = solve_unique(Bsig, rhs)
            w = [Fraction(0)] * ext.m_prime
            for idx, val in zip(sigma, wsig):
                w[idx] = val
            w[j] = Fraction(1)
            delta = _delta_of_pairings(ext, w)
            if delta is None:
                raise BasisShapeInfeasibleError("pairing vector outside the kernel")
            omega = sum(delta)
            if omega <= 0:
                raise EnumerationUnboundedError(
                    f"direction {j} of cone {sigma} has nonpositive weight {omega}")
            units.append((tuple(w), delta, omega))

        def rec(idx: int, w_acc, delta_acc, weight_acc):
            if weight_acc > bound:
                return
            if idx == len(units):
                if delta_acc in seen:
                    return
                w = tuple(w_acc)
                # membership: fractional/negative pairings only on sigma
                nu_vec = [Fraction(0)] * n
                for jj in range(ext.m_prime):
                    fneg = (-w[jj]) - math.floor(-w[jj])  # {-<D_j,d>}
                    if fneg:
                        for i in range(n):
                            nu_vec[i] += fneg * vectors[jj][i]
                nu = []
                for x in nu_vec:
                    assert x.denominator == 1
                    nu.append(int(x))
                nu = tuple(nu)
                if nu != zero and nu not in box_by_nu:
                    raise InvalidFanError(f"sector {nu} of class {delta_acc} "
                                          "is not a Box element")
                zw = sum(math.ceil(x) for x in w)
                seen[delta_acc] = KEffElement(delta_acc, w, nu, zw, weight_acc)
                return
            w0, d0, om0 = units[idx]
            k = 0
            while weight_acc + k * om0 <= bound:
                rec(idx + 1,
                    [a + k * b for a, b in zip(w_acc, w0)],
                    tuple(a + k * b for a, b in zip(delta_acc, d0)),
                    weight_acc + k * om0)
                k += 1

        rec(0, [Fraction(0)] * ext.m_prime,
            (Fraction(0),) * ext.r_prime, Fraction(0))
    return sorted(seen.values(), key=lambda el: (el.weight, el.delta))
