"""Crepant-resolution pairs, B-model chart gluing, analytic continuation,
and open crepant-resolution checks.

A resolution pair couples an orbifold fan X with a refining fan Y whose
new rays are age-one twisted sectors of X. The B-model charts of the two
sides are glued by a monomial change of coordinates computed from the
curve-class bases; for the weighted-projective family P(1,...,1,n) the
quantum parameters of Y extend analytically to the orbifold chart, which
gives the explicit change of variables Q = Q(q) and lets the two
Landau-Ginzburg potentials be compared term by term.

For n = 2, log Q_1 continues to -i(pi - g(x)) at x = f(tau), where f,
the inverse of g, generates the orbi-disc invariants. With u = g(f(tau))
this gives Q_1 = -exp(i u) and Q_2 = i q1^{1/2} exp(-i u/2), so
Q_2 (1 + Q_1) = 2 q1^{1/2} sin(tau/2) holds exactly when u = tau: that
composition is checked over the rationals with `series_compose`.
Q_1 Q_2^2 = q1 holds for every u and is not reported. For n >= 3 only
the continuation's x^1 coefficient is checked (`crc_verify`); the
potentials are not compared.
"""

import cmath
import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional

from .exact import DependentGeneratorsError, SmithFactor, integral
from .extended import ExtendedFanData, build_extended
from .families import wpn_index
from .fan import StackyFan, require_valid
from .series import (PuiseuxSeries, lagrange_invert, make_roster,
                     series_compose)


class UnsupportedN(ValueError):
    pass


class BasisMismatch(ValueError):
    pass


class WpnMismatch(ValueError):
    pass


# -- reports ------------------------------------------------------------


class IdentityReport(NamedTuple):
    identity: str
    max_error: float
    worst_point: dict
    status: str  # "pass" | "fail"

    def to_json(self) -> dict:
        return {"identity": self.identity, "max_error": self.max_error,
                "worst_point": self.worst_point, "status": self.status}


def _report(identity: str, max_error: float, worst_point: dict,
            tol: float) -> IdentityReport:
    return IdentityReport(identity, max_error, worst_point,
                          "pass" if max_error <= tol else "fail")


# -- resolution pairs ---------------------------------------------------


class CrepancyReport(NamedTuple):
    refinement: bool
    crepant: bool
    new_ray_indices: tuple[int, ...]
    issues: tuple[str, ...]

    def to_json(self) -> dict:
        return {"refinement": self.refinement, "crepant": self.crepant,
                "new_rays": list(self.new_ray_indices),
                "issues": list(self.issues)}


class ResolutionPair(NamedTuple):
    orbifold: StackyFan
    resolution: StackyFan
    # orbifold ray index -> resolution ray index
    correspondence: tuple[int, ...]
    new_ray_indices: tuple[int, ...]

    @classmethod
    def make(cls, orbifold: StackyFan, resolution: StackyFan) -> "ResolutionPair":
        if orbifold.dim != resolution.dim:
            raise BasisMismatch("fans live in different lattices")
        corr = []
        for v in orbifold.stacky_vectors:
            try:
                corr.append(resolution.stacky_vectors.index(v))
            except ValueError:
                raise BasisMismatch(f"orbifold ray {v} missing from resolution")
        new = tuple(j for j in range(len(resolution.stacky_vectors))
                    if j not in corr)
        return cls(orbifold, resolution, tuple(corr), new)


def verify_crepant(pair: ResolutionPair) -> CrepancyReport:
    """Check that the resolution fan refines the orbifold fan and that
    every new ray is an age-one twisted sector of the orbifold. Raises
    InvalidFanError unless both fans are valid."""
    X, Y = pair.orbifold, pair.resolution
    require_valid(X)
    require_valid(Y)
    issues = []
    refinement = True
    for cone in Y.max_cones:
        # a cone is convex, so it lies in sigma when its generators do;
        # solved on the orbifold's cone factors, which X keeps
        vs = Y.cone_generators(cone)
        if not any(all(X.in_cone(sigma, v) is not None for v in vs)
                   for sigma in X.max_cones):
            refinement = False
            issues.append(f"resolution cone {cone} not contained in any "
                          "orbifold cone")
    age_one = {el.nu for el in X.box if el.age == 1}
    crepant = refinement
    for j in pair.new_ray_indices:
        v = Y.stacky_vectors[j]
        if v not in age_one:
            crepant = False
            issues.append(f"new ray {v} is not an age-one twisted sector "
                          "of the orbifold")
    return CrepancyReport(refinement, crepant, pair.new_ray_indices,
                          tuple(issues))


# -- chart gluing -------------------------------------------------------


class ChartGluing(NamedTuple):
    """Monomial coordinate change between the two B-model charts.

    y_of_u[a][b] is the exponent of U_{b+1} in y_{a+1}; u_of_y is the
    inverse map with rational exponents. eta relations are recorded for
    the P(1,...,1,n) family; branch_note documents the root convention.
    """
    y_of_u: tuple[tuple[int, ...], ...]
    u_of_y: tuple[tuple[Fraction, ...], ...]
    eta_of_u: Optional[tuple[tuple[Fraction, ...], ...]]
    branch_note: str

    def to_json(self) -> dict:
        return {
            "y_of_u": [[int(x) for x in row] for row in self.y_of_u],
            "u_of_y": [[str(x) for x in row] for row in self.u_of_y],
            "eta_of_u": None if self.eta_of_u is None else
                [[str(x) for x in row] for row in self.eta_of_u],
            "branch": self.branch_note,
        }


def _extended_in_resolution(pair: ResolutionPair,
                            ext_x: ExtendedFanData) -> list[list[int]]:
    """Rewrite the orbifold curve-class basis in resolution ray coordinates."""
    Y = pair.resolution
    my = len(Y.stacky_vectors)
    # map each column of the orbifold extended lattice to a resolution ray
    col_to_ray = list(pair.correspondence)
    for nu in ext_x.extra:
        v = nu.nu
        try:
            col_to_ray.append(Y.stacky_vectors.index(tuple(int(x) for x in v)))
        except ValueError:
            raise BasisMismatch(f"twisted sector {v} used by the orbifold "
                                "chart is not a ray of the resolution")
    out = []
    for d in ext_x.basis:
        row = [0] * my
        for col, x in enumerate(d):
            row[col_to_ray[col]] += x
        out.append(row)
    return out


def glue_charts(pair: ResolutionPair, n: Optional[int]) -> ChartGluing:
    """Express each orbifold chart coordinate y_a as a monomial in the
    resolution chart coordinates U_b, by writing the orbifold curve-class
    basis in the resolution basis. `n` is the pair's P(1,...,1,n) index
    (`pair_wpn_index`), or None; it selects the eta relations."""
    ext_x = build_extended(pair.orbifold)
    ext_y = build_extended(pair.resolution)
    if ext_y.extra:
        raise BasisMismatch("resolution must have no twisted sectors of "
                            "age at most one")
    if ext_x.r_prime != ext_y.r_prime:
        raise BasisMismatch("chart dimensions differ")
    mapped = _extended_in_resolution(pair, ext_x)
    M = []
    for row in mapped:
        sol = integral(ext_y.basis_factor.solve(row))
        if sol is None:
            raise BasisMismatch("orbifold class is not integral in the "
                                "resolution basis")
        M.append(tuple(sol))
    try:
        u_of_y = tuple(map(tuple, SmithFactor(M).inverse()))
    except DependentGeneratorsError:
        raise BasisMismatch("glued classes are linearly dependent")
    eta = None
    if n is not None:
        # eta_1 = U_1^{-1/n}, eta_2 = U_1^{1/n} U_2
        eta = ((Fraction(-1, n), Fraction(0)),
               (Fraction(1, n), Fraction(1)))
    return ChartGluing(tuple(M), u_of_y, eta,
                       "principal branch for all fractional powers")


def pair_wpn_index(pair: ResolutionPair) -> Optional[int]:
    """n if the pair is P(1,...,1,n) resolved by one new ray, else None."""
    if len(pair.new_ray_indices) != 1:
        return None
    return wpn_index(pair.orbifold)


# -- exact generating series for the weighted family --------------------


def wpn_g_series(n: int, order: int) -> PuiseuxSeries:
    """g(x) = sum_k [(-1/n)(-1/n-1)...(-1/n-k+1)]^n x^{kn+1}/(kn+1)!.

    The inverse mirror map of P(1,...,1,n) satisfies tau = g(y1^{-1/n} y2).
    """
    if n < 2:
        raise UnsupportedN("family requires n >= 2")
    r = make_roster(["x"])
    # the k-th product is a/n^k with a = prod_{i<k} -(1 + i n), so the
    # term of x^{kn+1} is a^n over n^{kn} (kn+1)!
    parts = {}
    a, k = 1, 0
    while k * n + 1 <= order:
        parts[(k * n + 1,)] = (a ** n, n ** (k * n) * math.factorial(k * n + 1))
        a *= -(1 + k * n)
        k += 1
    den = math.lcm(*(d for _, d in parts.values()))
    return PuiseuxSeries(r, order, {e: x * (den // d) for e, (x, d) in parts.items()}, den)


def wpn_f_series(n: int, order: int) -> PuiseuxSeries:
    """Inverse of g: x = f(tau); its l-th Taylor coefficient times l! is
    the open invariant with l twisted insertions."""
    return lagrange_invert(wpn_g_series(n, order), order, "t")


# -- analytic continuation for P(1,...,1,n) -----------------------------


class ContinuationFormula(NamedTuple):
    """log Q_1 continued to the orbifold chart, as a series in
    x = y1^{-1/n} y2: constant + sum over exponents e of coeff[e] * x^e.
    log Q_2 = (log y1 - log Q_1)/n.
    """
    parity: str                     # "even" | "odd"
    constant: complex
    coefficients: dict              # exponent -> complex
    note: str


def continuation_wpn(n: int, order: int = 10) -> ContinuationFormula:
    """Closed-form analytic continuation of log Q_1 for the family.

    Per residue l = 1..n-1 the coefficient is
        (-1)^l pi e^{-l pi i / n} / (Gamma(1 - l/n)^n sin(l pi / n))
    for even n (without the phase factor for odd n), multiplying the
    hypergeometric series sum_k (-1)^{nk} ((l/n)_k)^n x^{nk+l} / (nk+l)!,
    where the Pochhammer symbol (l/n)_k = Gamma(k+l/n)/Gamma(l/n) is an
    integer over n^k: each term is one exact quotient, rounded once, so
    high orders do not overflow. Even n carries the additive constant
    -i pi that pins the branch so that n = 2 reduces to -i(pi - g(x)).
    """
    if n < 2:
        raise UnsupportedN("continuation requires n >= 2")
    even = n % 2 == 0
    coeffs: dict[int, complex] = {}
    for l in range(1, n):
        c = (-1) ** l * math.pi / (math.gamma(1 - l / n) ** n
                                   * math.sin(l * math.pi / n))
        if even:
            c *= cmath.exp(-1j * l * math.pi / n)
        k, a = 0, 1                       # (l/n)_k = a / n^k
        while n * k + l <= order:
            inner = ((-1) ** (n * k) * a ** n
                     / (n ** (n * k) * math.factorial(n * k + l)))
            coeffs[n * k + l] = coeffs.get(n * k + l, 0.0) + c * inner
            a *= n * k + l
            k += 1
    constant = -1j * math.pi if even else 0.0
    note = ("affine change of variables; flat structures preserved" if n == 2
            else "non-affine change of variables; flat structures near the "
                 "large-radius limit points are not preserved; "
                 "W_X = W_Y(Q) is not compared")
    return ContinuationFormula("even" if even else "odd", constant, coeffs,
                               note)


def q1_closed(tau: complex) -> complex:
    """Q_1(tau) for n = 2: -exp(i tau)."""
    return -cmath.exp(1j * tau)


def q2_closed(tau: complex, q1: complex) -> complex:
    """Q_2(q1, tau) for n = 2: q1^{1/2} exp(i (pi - tau)/2)."""
    return cmath.sqrt(q1) * cmath.exp(1j * (math.pi - tau) / 2)


def change_of_variables(order: int = 12) -> PuiseuxSeries:
    """u(t) = g(f(t)) for n = 2, exactly over the rationals.

    With log Q_1 = -i(pi - g(x)) at x = f(tau), the change of variables
    is Q_1 = -exp(i u) and Q_2 = i q1^{1/2} exp(-i u/2); it reduces to
    the closed forms q1_closed/q2_closed exactly when u = tau.
    """
    return series_compose(wpn_g_series(2, order), wpn_f_series(2, order))


# -- open CRC verification ----------------------------------------------


def crc_exact_identities(order: int = 12, tol: float = 1e-12) -> list[IdentityReport]:
    """The n = 2 coefficient identities.

    Q2 (1 + Q1) = 2 q1^{1/2} sin(tau/2) holds exactly when
    u = g(f(tau)) = tau (module docstring); its error is the largest
    |coefficient| of u - tau, exact over the rationals. Q1 Q2^2 = q1
    holds for every u and is not reported. The second report compares
    the Gamma-value continuation with -i(pi - g(x)) in floating point.
    """
    u = change_of_variables(order)
    diff = u - PuiseuxSeries.monomial(u.roster, u.order, {"t": 1})
    (k,), err = max(sorted(diff.terms.items()), key=lambda kv: abs(kv[1]),
                    default=((1,), 0))
    reports = [_report("Q2*(1+Q1) = 2*q1^(1/2)*sin(tau2/2)", float(abs(err)),
                       {"tau_power": k, "q_power": "1/2"}, tol)]

    cont = continuation_wpn(2, min(order, 10))
    g = wpn_g_series(2, min(order, 10))
    worst = 0.0
    we = 0
    for e, c in cont.coefficients.items():
        target = 1j * complex(g.coefficient({"x": e}))
        if abs(c - target) > worst:
            worst, we = abs(c - target), e
    worst = max(worst, abs(cont.constant - (-1j * math.pi)))
    reports.append(_report("continuation(n=2) = -i*(pi - g(x))", worst,
                           {"x_power": we}, tol))
    return reports


def _w_orbifold(q1: float, tau: complex, z: tuple[complex, complex]) -> complex:
    z1, z2 = z
    return (z1 + z2 + q1 / (z1 * z2 ** 2)
            + 2 * cmath.sqrt(q1) * cmath.sin(tau / 2) / z2)


def _w_resolution(Q1: complex, Q2: complex, z: tuple[complex, complex]) -> complex:
    z1, z2 = z
    return z1 + z2 + Q1 * Q2 ** 2 / (z1 * z2 ** 2) + Q2 * (1 + Q1) / z2


SAMPLE_SEED = 20240815
SAMPLES = 20


def crc_numeric_samples(tol: float = 1e-10) -> IdentityReport:
    """Sampled comparison W_X(q) = W_Y(Q(q)) for n = 2 at SAMPLES points on
    |q1| <= 0.05, |tau2| <= 1, z on the unit torus, drawn from SAMPLE_SEED."""
    rng = random.Random(SAMPLE_SEED)
    pts = []
    for _ in range(SAMPLES):
        q1 = rng.uniform(0.001, 0.05)
        tau = rng.uniform(-1.0, 1.0)
        z = (cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
             cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        pts.append((q1, tau, z))

    def check(pt):
        q1, tau, z = pt
        Q1 = q1_closed(tau)
        Q2 = q2_closed(tau, q1)
        return abs(_w_orbifold(q1, tau, z) - _w_resolution(Q1, Q2, z))

    errs = [check(pt) for pt in pts]
    worst = max(range(len(pts)), key=lambda i: errs[i])
    q1, tau, z = pts[worst]
    return _report("W_X(q) = W_Y(Q(q)) sampled", errs[worst],
                   {"q1": q1, "tau2": tau,
                    "z": [[z[0].real, z[0].imag], [z[1].real, z[1].imag]],
                    "sample": worst}, tol)


def crc_verify(n: int, order: int = 12,
               tol: float = 1e-10) -> list[IdentityReport]:
    """Verify the open crepant-resolution identities for P(1,...,1,n).

    n = 2 reports the exact composition g(f(tau)) = tau, the continuation
    against -i(pi - g(x)) (see crc_exact_identities; both are held to
    min(tol, 1e-12)), and the sampled comparison of the two potentials
    (crc_numeric_samples), held to `tol`. Q1 Q2^2 = q1 is true for every
    change of variables of the n = 2 form and is not reported.

    n >= 3 reports one identity, held to min(tol, 1e-12): the x^1
    coefficient of the continuation, written with Gamma(1 - 1/n), against
    its reflection form -Gamma(1/n)^n sin(pi/n)^(n-1) / pi^(n-1) (times
    e^{-i pi/n} for even n). The change of variables is non-affine and
    no independent closed form of W_Y on |Q1| = 1 is available, so
    W_X = W_Y(Q) is not compared for n >= 3.
    """
    if n < 2:
        raise UnsupportedN("crc requires n >= 2")
    if n == 2:
        return [*crc_exact_identities(order, tol=min(tol, 1e-12)),
                crc_numeric_samples(tol)]
    lead = continuation_wpn(n, order).coefficients.get(1, 0.0)
    target = -(math.gamma(1 / n) ** n * math.sin(math.pi / n) ** (n - 1)
               / math.pi ** (n - 1))
    identity = (f"continuation(n={n}) x^1 coefficient = -Gamma(1/{n})^{n}"
                f"*sin(pi/{n})^{n - 1}/pi^{n - 1}")
    if n % 2 == 0:
        target *= cmath.exp(-1j * math.pi / n)
        identity += f"*exp(-i*pi/{n})"
    return [_report(identity, abs(lead - target), {"x_power": 1},
                    min(tol, 1e-12))]


def specialization_check(n: Optional[int],
                         tol: float = 1e-10) -> list[IdentityReport]:
    """At tau_2 = 0 the exceptional term of W_Y must vanish: in the n = 2
    closed form 1 + Q1 = 1 + exp(-i*pi) = 0, held to min(tol, 1e-15), and
    at sampled q1 the exceptional z-term, together with Q1 Q2^2 = q1,
    held to min(tol, 1e-12). `n` is the detected P(1,...,1,n) index
    (None outside the family); only n = 2 is implemented."""
    if n is None:
        raise UnsupportedN("specialization closed form is only "
                           "implemented for the P(1,...,1,n) family")
    if n != 2:
        raise UnsupportedN("specialization check requires n = 2; the "
                           "continuation is not implemented for this family")
    reports = []
    q1_at_zero = q1_closed(0.0)
    exact = abs(1 + q1_at_zero)
    reports.append(_report("(1+Q1)|_{tau2=0} = 0 (closed form)", exact,
                           {"tau2": 0.0}, min(tol, 1e-15)))
    worst = 0.0
    wq = None
    for q1 in (0.01, 0.05):
        Q2 = q2_closed(0.0, q1)
        val = abs(Q2 * (1 + q1_at_zero))
        if val > worst:
            worst, wq = val, q1
        # the non-exceptional identity must keep holding
        ident = abs(q1_at_zero * Q2 ** 2 - q1)
        if ident > worst:
            worst, wq = ident, q1
    reports.append(_report("exceptional term at tau2=0 (sampled q1)", worst,
                           {"q1": wq, "tau2": 0.0}, min(tol, 1e-12)))
    return reports


def pair_report(pair: ResolutionPair, order: int = 10,
                tol: float = 1e-10, wpn: Optional[int] = None) -> dict:
    """Full report for a crepant pair: crepancy, chart gluing, and (for
    the weighted family) continuation/CRC data; `tol` goes to crc_verify.
    `wpn`, when given, is the n that a crepant pair must have (the CLI's
    --wpn): any other n raises WpnMismatch right after the crepancy
    check, before the gluing and the continuation run."""
    crep = verify_crepant(pair)
    out = {"crepancy": crep.to_json()}
    if not crep.crepant:
        return out
    n = pair_wpn_index(pair)
    if wpn is not None and wpn != n:
        raise WpnMismatch(f"--wpn {wpn} does not match the pair (detected n: {n})")
    gluing = glue_charts(pair, n)
    out["gluing"] = gluing.to_json()
    if n is None:
        out["continuation"] = "continuation not implemented for this family"
    else:
        out["wpn"] = n
        cont = continuation_wpn(n, order)
        out["continuation"] = {
            "parity": cont.parity,
            "constant": [cont.constant.real, cont.constant.imag],
            "coefficients": {str(e): [c.real, c.imag]
                             for e, c in sorted(cont.coefficients.items())},
            "note": cont.note,
        }
        out["reports"] = [r.to_json()
                          for r in crc_verify(n, order, tol)]
    return out
