"""I-functions, mirror maps, superpotentials and open invariants.

The I-function coefficient of an effective class delta is a polynomial
in the divisor classes pbar_1..pbar_r, truncated at degree n
(nilpotency), Laurent in z, in the twisted sector nu of delta. It is
homogeneous of degree D_delta = -sum_j ceil <D_j, delta> in (z, pbar),
so it is computed as one polynomial P_delta in pbar, an exact series of
the `series` kernel, and the z-power of each term follows from its
pbar-degree. The mirror map reads nothing below 1/z, so P_delta is
only computed for the classes with D_delta >= -1, and only to the
pbar-degree min(n, D_delta + 1) that reaches 1/z. Since -D_delta =
sum_j ceil <D_j, delta> >= c(delta) = sum_j <D_j, delta>, only the
classes with c(delta) <= 1 are enumerated. Each term is filed under its
sector, z-power and pbar-monomial (`ISeries`); a reader takes one key
whole. `closed_h0_z2` computes the one 1/z^2 key the bridge reads.
"""

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .exact import Vec
from .extended import (ExtendedFanData, KEffElement, _chart_roster,
                       build_extended, keff_enumerate)
from .families import wpn_index
from .fan import (StackyFan, XBarResult, is_gorenstein, star_subdivide_xbar,
                  wall_curve_classes)
from .series import (PowerLadder, PuiseuxSeries, Roster, _power_of,
                     linear_combination, make_roster, multivar_invert,
                     substitute)


class MirrorShapeViolation(ValueError):
    pass


class BasicNotOneError(ValueError):
    pass


class NotGorensteinError(ValueError):
    pass


class NotFanoError(ValueError):
    pass


def _pairing_factor(P: int, L: int, n: int, cache: dict) -> tuple[tuple[int, ...], int]:
    """The I-function factor F(p) of one index j of pairing
    p = <D_j, delta> = P/L, at z = 1, as its coefficients c_0..c_n in
    Dbar_j (nilpotency truncates at Dbar_j^n), reduced numerators N over D.

    F(p) is prod (Dbar_j + a) over a = p mod 1 with p < a <= 0, divided by
    the same product over 0 < a <= p. So F is 1 on (-1, 0] (-L < P <= 0),
    F(p) = F(p - 1) / (Dbar_j + p) for p > 0, which is c'_i = M_i / (D
    P^{n+1}) with M_i = (N_i P^{n+1} - M_{i-1}) L / P exactly, and
    F(p) = F(p + 1) (Dbar_j + p + 1) for p <= -1, which is
    c'_i = ((P + L) N_i + L N_{i-1}) / (D L). `cache` holds every F it
    computes, keyed by P, so it serves one L only.
    """
    chain = []
    Q = P
    while Q not in cache and not -L < Q <= 0:
        chain.append(Q)
        Q = Q - L if Q > 0 else Q + L
    N, D = cache.get(Q) or ((1,) + (0,) * n, 1)
    for Q in reversed(chain):
        if Q > 0:
            Qn = Q ** (n + 1)
            N = tuple(accumulate(N, lambda m, x: (x * Qn - m) * L // Q,
                                 initial=0))[1:]
            D *= Qn
        else:
            N = tuple((Q + L) * x + L * lower for x, lower in zip(N, (0,) + N))
            D *= L
        g = math.gcd(D, *N)
        N, D = cache[Q] = tuple(x // g for x in N), D // g
    return N, D


def _i_coefficient(ext: ExtendedFanData, kel: KEffElement,
                   dbar_pows: list[list[PuiseuxSeries]],
                   factors: dict) -> dict[tuple[int, ...], Fraction]:
    """P_delta, the class-delta coefficient of the I-function at z = 1,
    up to the pbar-degree t = min(n, D_delta + 1) that reaches 1/z.

    Each factor (Dbar_j + c z) has degree 1 in (z, pbar), so the
    coefficient is z^{D_delta} P_delta(pbar/z) with D_delta the number
    of numerator minus denominator factors, -sum_j ceil <D_j, delta>,
    and the pbar-degree-i part of P_delta carries z^{D_delta - i}.
    P_delta is the product over j of the pairing factors
    (N_0 + ... + N_t Dbar_j^t) / D (`_pairing_factor`, memoised in
    `factors`), each sum built only to Dbar_j^t; the product starts from
    an integer scalar num/den at order t, which truncates it, and every
    1/D goes into that scalar. Dbar_j vanishes on an extended index j,
    which contributes its c_0 only; that c_0 and every factor without a
    term of degree 1..t go into the scalar too.
    P_delta is 0 when the scalar is, or when the lowest Dbar-degrees of
    the other factors sum past t. `dbar_pows[j][i]` is Dbar_j^i.
    """
    n, L = ext.dim, ext.den
    t = min(n, 1 - kel.zweight)
    roster = dbar_pows[0][0].roster
    num, den, low = 1, 1, 0
    product = []
    for j, P in enumerate(kel.pairings):
        if not P:
            continue
        N, D = _pairing_factor(P, L, n, factors)
        den *= D
        if j >= ext.m:
            assert N[0], "vanishing factor on an extended index"
        if j >= ext.m or not any(N[1:t + 1]):
            num *= N[0]
        else:
            low += next(i for i, x in enumerate(N) if x)
            product.append(linear_combination(roster, n, [
                (N[i], dbar_pows[j][i]) for i in range(t + 1) if N[i]]))
    if not num or low > t:
        return {}
    P = PuiseuxSeries(roster, t, {(0,) * len(roster.names): num}, den)
    for poly in product:
        P = P * poly
    return P.terms


class ISeries(NamedTuple):
    """The I-function up to weight `order`, one series per key.

    `coeffs[(nu, zexp, pexp)][delta]` is the coefficient of z^zexp
    pbar^pexp in the class-delta coefficient z^{D_delta} P_delta(pbar/z),
    for the classes delta of K_eff in twisted sector nu (0 if untwisted),
    so zexp = D_delta - |pexp| >= -1; a missing key or class reads 0.
    Each delta is a `KEffElement.delta`, numerators over L = `ext.den`.
    `series` turns one key into sum_delta c_delta y^delta over `roster`,
    the chart roster: it scales delta_a by d_a/L, which must be exact.
    """

    ext: ExtendedFanData
    order: Fraction
    roster: Roster
    coeffs: dict[tuple, dict[tuple[int, ...], Fraction]]

    def series(self, nu: Vec, zexp: int, pexp: tuple[int, ...],
               order) -> PuiseuxSeries:
        roster, p = self.roster, Fraction(1, self.ext.den)
        return PuiseuxSeries(roster, order, {
            _power_of(tuple(x * d for x, d in zip(delta, roster.denoms)), p): c
            for delta, c in self.coeffs.get((nu, zexp, pexp), {}).items()})


def i_function(ext: ExtendedFanData, order) -> ISeries:
    order = Fraction(order)
    n, r = ext.dim, ext.r
    roster = make_roster([f"p{a + 1}" for a in range(r)], [1] * r, [True] * r)
    dbar_pows = []
    for j in range(ext.m):
        dbar = PuiseuxSeries(roster, n, {
            tuple(int(a == b) for b in range(r)): ext.basis[a][j]
            for a in range(r)}, 1)
        pows = [PuiseuxSeries.constant(roster, n, 1)]
        for _ in range(n):
            pows.append(pows[-1] * dbar)
        dbar_pows.append(pows)
    coeffs, factors = {}, {}
    for kel in keff_enumerate(ext, order, 1):
        degree = -kel.zweight            # D_delta
        if degree >= -1:
            for pexp, c in _i_coefficient(ext, kel, dbar_pows, factors).items():
                key = (kel.nu, degree - sum(pexp), pexp)
                coeffs.setdefault(key, {})[kel.delta] = c
    return ISeries(ext, order, _chart_roster(ext, order), coeffs)


def check_normalization(iseries: ISeries) -> tuple[bool, list[str]]:
    """z^0 coefficient is 1; the 1/z coefficient lies in H^{<=2}_orb:
    untwisted of pbar-degree <= 1 (the A_a), or twisted without pbar in a
    sector of age <= 1 (the B_b). Each key is checked once."""
    ext = iseries.ext
    zero_nu, zero_p = (0,) * ext.dim, (0,) * ext.r
    ages = {el.nu: el.age for el in ext.fan.box}
    errors = []
    for (nu, z, pexp), terms in iseries.coeffs.items():
        if z > 0:
            errors.append(f"positive z-power {z} in sector {nu} at pbar^{pexp}")
        elif z == 0 and ((nu, pexp) != (zero_nu, zero_p)
                         or terms != {(0,) * ext.r_prime: 1}):
            errors.append(f"unexpected z^0 term in sector {nu} at pbar^{pexp}")
        elif z == -1 and nu == zero_nu and sum(pexp) > 1:
            errors.append(f"1/z term of pbar-degree {sum(pexp)} at pbar^{pexp}")
        elif z == -1 and nu != zero_nu and (any(pexp) or ages[nu] > 1):
            errors.append(f"1/z term outside H^2_orb in sector {nu} at pbar^{pexp}")
    return (not errors, errors)


# -- mirror map ----------------------------------------------------------


class MirrorMap(NamedTuple):
    order: Fraction
    y_roster: Roster
    q_names: tuple[str, ...]
    tau_names: tuple[str, ...]
    q_denoms: tuple[int, ...]
    log_corrections: list[PuiseuxSeries]   # log q_a = log y_a + A_a(y)
    tau: list[PuiseuxSeries]               # tau_b = B_b(y)

    def inverse(self) -> list[PuiseuxSeries]:
        return multivar_invert(self.log_corrections, self.tau,
                               self.q_names, self.tau_names,
                               self.q_denoms, self.order)


def mirror_map(ext: ExtendedFanData, order) -> MirrorMap:
    order = Fraction(order)
    iseries = i_function(ext, order)
    ok, errors = check_normalization(iseries)
    if not ok:
        raise MirrorShapeViolation("; ".join(errors))
    r, rp = ext.r, ext.r_prime
    zero_nu, zero_p = (0,) * ext.dim, (0,) * r
    # A_a reads z^-1 pbar_a in the untwisted sector, B_b z^-1 in sector nu_b
    A = [iseries.series(zero_nu, -1, tuple(int(b == a) for b in range(r)), order)
         for a in range(r)]
    B = [iseries.series(el.nu, -1, zero_p, order) for el in ext.extra]
    q_names = tuple(f"q{a + 1}" for a in range(r))
    tau_names = tuple(f"tau{r + b + 1}" for b in range(rp - r))
    return MirrorMap(order, iseries.roster, q_names, tau_names,
                     iseries.roster.denoms[:r], A, B)


# -- superpotentials -----------------------------------------------------


class PotentialTerm(NamedTuple):
    vector: Vec             # stacky vector b_j or Box vector nu
    ray_index: int          # index into ext.all_vectors()
    is_extended: bool
    coefficient: PuiseuxSeries
    exponents: tuple[Fraction, ...]   # C_j = prod_a y_a^exponents[a]


class Potential(NamedTuple):
    gauge: tuple[int, ...]
    terms: tuple[PotentialTerm, ...]


def hori_vafa(ext: ExtendedFanData, order=10) -> Potential:
    """W^HV: one term C_j z^{b_j} (or C_j z^nu) per extended ray j.

    The gauge is the first maximal cone: C_j = 1 on its rays. The other
    m' - n = r' coefficients are monomials in the chart coordinates y_a,
    fixed by prod_j C_j^{D_j(e_a)} = y_a for the basis classes e_a, so
    their exponent vectors are the rows of the inverse of the basis
    matrix restricted to those rays. Each term stores its exponent
    vector, which is 0 on the gauge cone. The rows are read from
    D B^{-1}, the gauge cone's entry of `ext.cone_inverses`; D is the
    least common denominator of B^{-1}, so it is the chart roster's
    denominator.
    """
    gauge = ext.fan.max_cones[0]
    free, den, rows = ext.cone_inverses[0]
    rows = dict(zip(free, rows))
    zero = (0,) * ext.r_prime
    expo = [tuple(Fraction(x, den) for x in rows.get(j, zero))
            for j in range(ext.m_prime)]
    names = [f"y{a + 1}" for a in range(ext.r_prime)]
    roster = make_roster(names, [den] * ext.r_prime, [False] * ext.r_prime)
    vectors = ext.all_vectors()
    terms = tuple(
        PotentialTerm(vectors[j], j, j >= ext.m,
                      PuiseuxSeries.monomial(roster, order, dict(zip(names, e))), e)
        for j, e in enumerate(expo))
    return Potential(gauge, terms)


def _theorem_status(ext: ExtendedFanData) -> str:
    """Open mirror theorem coverage: manifolds and the P(1,..,1,n) family."""
    if not ext.fan.box:
        return "proved (manifold)"
    if wpn_index(ext.fan) is not None:
        return "proved (P(1,...,1,n) family)"
    return "conjectural via the open mirror theorem"


class LFResult(NamedTuple):
    potential: Potential
    mirror: MirrorMap
    chart_images: dict[str, PuiseuxSeries]   # y_a -> series in (q, tau)
    status: str


def lf_superpotential(ext: ExtendedFanData, order=10) -> LFResult:
    """W^LF: the Hori-Vafa coefficients evaluated on the inverse mirror map."""
    order = Fraction(order)
    mm = mirror_map(ext, order)
    Y = mm.inverse()
    hv = hori_vafa(ext, order=order)
    # align the HV chart roster (possibly finer denominators) with the
    # mirror-map images
    images = dict(zip(hv.terms[0].coefficient.roster.names, Y))
    ladder = PowerLadder(images)
    terms = tuple(PotentialTerm(t.vector, t.ray_index, t.is_extended,
                                substitute(t.coefficient, ladder, order),
                                t.exponents)
                  for t in hv.terms)
    return LFResult(Potential(hv.gauge, terms), mm, images, _theorem_status(ext))


# -- open invariant extraction -------------------------------------------


class OpenGWTable(NamedTuple):
    """n_{1,l,beta_a + d} keyed by (ray index, q-exponents, tau-exponents)."""

    entries: dict[tuple[int, tuple, tuple], Fraction]
    generating: dict[int, PuiseuxSeries]   # normalized series per ray
    status: str


def extract_open_gw(lf: LFResult, ext: ExtendedFanData) -> OpenGWTable:
    """The open invariants n_{1,l,beta_j + d} of each ray j.

    The generating series of ray j is its LF coefficient divided by its
    prefactor q^{qexp}: the HV exponent vector of C_j (`PotentialTerm.
    exponents`), with each extended coordinate y_{r+b} read as
    q^{d-tilde_b}. Its basic coefficient (1 for a ray, tau_j for an
    extended ray) must be 1, and the tau-part of each entry is multiplied
    by the factorials of its exponents. A series known only below the
    weight of its basic monomial raises ValueError.
    """
    mm = lf.mirror
    r = ext.r
    entries: dict[tuple[int, tuple, tuple], Fraction] = {}
    generating = {}
    for t in lf.potential.terms:
        j = t.ray_index
        qexp = list(t.exponents[:r])
        for e, dt in zip(t.exponents[r:], ext.dtilde):
            if e:
                for c in range(r):
                    qexp[c] += e * dt[c]
        shift = {mm.q_names[a]: -qexp[a] for a in range(r) if qexp[a]}
        S = t.coefficient.shift(shift) if shift else t.coefficient
        generating[j] = S
        if S.order < int(t.is_extended):    # the weight of tau_j, or of 1
            raise ValueError(f"basic coefficient for ray {j} is unknown at the requested "
                             f"order {mm.order}: its series reaches only O({S.order})")
        if t.is_extended:
            basic = S.coefficient({mm.tau_names[j - ext.m]: Fraction(1)})
        else:
            basic = S.constant_term()
        if basic != 1:
            raise BasicNotOneError(
                f"basic coefficient for ray {j} is {basic}, expected 1")
        for exps, c in S.sorted_terms():
            qpart = tuple(exps[:r])
            tpart = tuple(int(x) for x in exps[r:])
            fact = 1
            for l in tpart:
                fact *= math.factorial(l)
            entries[(j, qpart, tpart)] = c * fact
    return OpenGWTable(entries, generating, lf.status)


# -- open-closed bridge ----------------------------------------------------


class BridgeReport(NamedTuple):
    xbar: XBarResult
    beta_bar_delta: Optional[tuple]
    closed_series: PuiseuxSeries          # H^0 part of 1/z^2 of I on X-bar, in y
    statement: str
    cross_checked: bool
    match: Optional[bool]


def closed_h0_z2(ext: ExtendedFanData, order) -> PuiseuxSeries:
    """H^0 part of the 1/z^2 coefficient of the I-function, as a y-series:
    the sum over the untwisted classes delta with D_delta = -2 (so
    c(delta) <= 2) of P_delta at pbar-degree 0, the product of the c_0
    of their pairing factors (`_pairing_factor` at n = 0)."""
    order = Fraction(order)
    classes, factors = {}, {}
    for kel in keff_enumerate(ext, order, 2):
        if kel.zweight == 2 and not any(kel.nu):
            c0 = [_pairing_factor(P, ext.den, 0, factors) for P in kel.pairings if P]
            classes[kel.delta] = math.prod(Fraction(N[0], D) for N, D in c0)
    key = ((0,) * ext.dim, -2, (0,) * ext.r)
    return ISeries(ext, order, _chart_roster(ext, order), {key: classes}).series(*key, order)


def open_closed_bridge(fan: StackyFan, b0: Sequence[int], order=10) -> BridgeReport:
    """Compare the open series of the basic disc class with boundary
    vector b0 (a stacky vector b_j or a Box element nu) with the closed
    1/z^2 series of beta-bar on X-bar (`star_subdivide_xbar`); the two
    are compared only when X-bar is X."""
    if not is_gorenstein(fan):
        raise NotGorensteinError("bridge requires a Gorenstein fan")
    if any(w.c1 <= 0 for w in wall_curve_classes(fan)):
        raise NotFanoError("bridge requires all wall curve classes with c1 > 0")
    xbar = star_subdivide_xbar(fan, b0)
    ext = build_extended(xbar.fan)
    closed = closed_h0_z2(ext, order)
    statement = ("n_{1,l,beta} equals the (l+1)-point closed invariant of "
                 "beta-bar = beta + beta_infinity on X-bar; " + xbar.beta_bar_note)
    if xbar.fan != fan:
        return BridgeReport(xbar, None, closed, statement +
                            " (closed-side cross-check needs the subdivided "
                            "model's own mirror data; not compared here)",
                            False, None)
    # X-bar == X: compare closed-side extraction with the open-side series
    # a Box element of age > 1 is no extended ray: index raises ValueError
    jopen = ext.all_vectors().index(xbar.boundary_vector)
    # beta-bar pairing vector: b0 on the base rays (1 on its ray, or the
    # t-coefficients of its Box element) plus the opposite ray
    w = [Fraction(0)] * ext.m_prime
    if jopen < ext.m:
        w[jopen] = Fraction(1)
    else:
        el = ext.extra[jopen - ext.m]
        for j, tj in zip(el.cone, el.t):
            w[j] = tj
    w[xbar.new_ray_index] += 1
    delta = ext.basis_factor.solve(w)
    if delta is None:
        raise MirrorShapeViolation("beta-bar is not a curve class")
    lf = lf_superpotential(ext, order)
    table = extract_open_gw(lf, ext)
    S = table.generating[jopen]
    mono = {lf.mirror.q_names[a]: delta[a] for a in range(ext.r) if delta[a]}
    open_side = S.shift(mono) if mono else S
    closed_q = substitute(closed, lf.chart_images, order)
    common = min(closed_q.order, open_side.order)
    match = closed_q.truncate(common).terms == open_side.truncate(common).terms
    return BridgeReport(xbar, tuple(delta), closed, statement, True, match)
