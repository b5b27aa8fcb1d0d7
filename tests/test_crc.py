"""Crepant resolution checks: gluing, continuation, potential identities."""

import cmath
import math
from fractions import Fraction as F

import pytest

from orbimirror.crc import (SAMPLES, ContinuationFormula, ResolutionPair,
                            UnsupportedN, change_of_variables,
                            continuation_wpn,
                            crc_exact_identities, crc_numeric_samples,
                            crc_verify, glue_charts, pair_report,
                            pair_wpn_index, q1_closed, q2_closed,
                            specialization_check, verify_crepant,
                            wpn_f_series, wpn_g_series)
from orbimirror.families import f2_fan, kp_bundle_fan, p2_fan, wpn_fan
from orbimirror.fan import StackyFan
from orbimirror.series import PuiseuxSeries
from strategies import cube_fan


def wpn_pair(n):
    return ResolutionPair.make(wpn_fan(n), kp_bundle_fan(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_crepant_family(n):
    rep = verify_crepant(wpn_pair(n))
    assert rep.crepant and rep.refinement


def test_verify_crepant_trivial():
    pair = ResolutionPair.make(p2_fan(), p2_fan())
    assert verify_crepant(pair).crepant


def test_verify_not_crepant():
    # blowing up a smooth point of P^2 is a resolution of nothing: the new
    # ray (1,1) is not a Box element, so the morphism is discrepant
    blown = StackyFan.make(2, ((1, 0), (0, 1), (-1, -1), (1, 1)),
                           ((0, 3), (1, 3), (1, 2), (0, 2)))
    pair = ResolutionPair.make(p2_fan(), blown)
    rep = verify_crepant(pair)
    assert rep.refinement and not rep.crepant


def test_verify_crepant_flags_a_flipped_diagonal():
    # same rays, but the two cones over the flipped face of the resolution
    # lie in no cone of the orbifold fan
    X, Y = cube_fan(), cube_fan(flip=True)
    assert X.report.valid and Y.report.valid
    rep = verify_crepant(ResolutionPair.make(X, Y))
    assert not rep.refinement and not rep.crepant
    assert rep.new_ray_indices == ()
    flipped = set(Y.max_cones) - set(X.max_cones)
    assert len(flipped) == 2
    assert rep.issues == tuple(
        f"resolution cone {c} not contained in any orbifold cone"
        for c in Y.max_cones if c in flipped)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_glue_charts(n):
    gl = glue_charts(wpn_pair(n), n)
    # y1 = U1 U2^n, y2 = U2
    assert gl.y_of_u == ((1, n), (0, 1))
    # inverse chart: U1 = y1 y2^{-n}, U2 = y2
    assert gl.u_of_y == ((F(1), F(-n)), (F(0), F(1)))


def test_g_and_f_are_inverse():
    from orbimirror.series import series_compose
    from orbimirror.series import PuiseuxSeries
    for n in (2, 3):
        g = wpn_g_series(n, 13)
        f = wpn_f_series(n, 13)
        comp = series_compose(g, f)
        t = PuiseuxSeries.monomial(f.roster, comp.order, {"t": 1})
        assert comp == t.truncate(comp.order)


def test_f_closed_form_n2():
    # the inverse of g for n = 2 is 2 sin(t/2)
    # 2 sin(t/2) = sum (-1)^k t^{2k+1} / ((2k+1)! 4^k)
    f = wpn_f_series(2, 12)
    for k in range(6):
        assert f.coefficient({"t": 2 * k + 1}) == \
            F((-1) ** k, math.factorial(2 * k + 1) * 4 ** k)


def test_continuation_unsupported():
    with pytest.raises(UnsupportedN):
        continuation_wpn(1, 8)


def test_continuation_n2_exact_reduction():
    # log Q1 = -i (pi - g(x)) for n = 2
    cont = continuation_wpn(2, 10)
    assert cont.parity == "even"
    assert abs(cont.constant - (-1j * math.pi)) < 1e-15
    g = wpn_g_series(2, 10)
    for (k,), c in g.terms.items():
        assert abs(cont.coefficients[k] - 1j * complex(c)) < 1e-12
    for e, c in cont.coefficients.items():
        if (e,) not in g.terms:
            assert abs(c) < 1e-12


def test_continuation_n3():
    cont = continuation_wpn(3, 8)
    assert cont.parity == "odd"
    assert cont.constant == 0
    # leading coefficient: sum over l of -pi/(Gamma(1-l/3)^3 sin(l pi/3))
    # restricted to the x^1 term, which only l = 1 reaches
    lead = -2 * math.sqrt(3) * math.pi / (3 * math.gamma(2 / 3) ** 3)
    assert abs(cont.coefficients[1] - lead) < 1e-13
    # odd n: no imaginary parts
    assert all(abs(c.imag) < 1e-13 for c in cont.coefficients.values())


def _continuation_gamma_form(n, order):
    # the coefficients with each Pochhammer symbol (l/n)_k written as
    # Gamma(k + l/n) / Gamma(l/n), which overflows past order ~250
    coeffs = {}
    for l in range(1, n):
        c = (-1) ** l * math.pi / (math.gamma(1 - l / n) ** n
                                   * math.sin(l * math.pi / n))
        if n % 2 == 0:
            c *= complex(math.cos(l * math.pi / n), -math.sin(l * math.pi / n))
        for k in range((order - l) // n + 1):
            coeffs[n * k + l] = coeffs.get(n * k + l, 0.0) + c * (
                (-1) ** (n * k) / math.factorial(n * k + l)
                * (math.gamma(k + l / n) / math.gamma(l / n)) ** n)
    return coeffs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_continuation_matches_gamma_form(n):
    cont = continuation_wpn(n, 40)
    want = _continuation_gamma_form(n, 40)
    assert cont.coefficients.keys() == want.keys()
    for e, c in want.items():
        assert abs(cont.coefficients[e] - c) <= 1e-13 * abs(c), e


def test_continuation_high_order_is_finite():
    cont = continuation_wpn(2, 400)
    assert max(cont.coefficients) == 399
    assert all(cmath.isfinite(c) and c for c in cont.coefficients.values())


def test_change_of_variables_tau_zero():
    # at tau = 0: Q1 = -1 exactly and Q2 = i sqrt(q1)
    assert abs(q1_closed(0.0) + 1.0) < 1e-15
    q1 = 0.04
    assert abs(q2_closed(0.0, q1) - 1j * math.sqrt(q1)) < 1e-14
    # |Q1| = 1 for real tau, Q1 = 1 at tau = pi
    for tau in (0.3, -0.7, 1.2):
        assert abs(abs(q1_closed(tau)) - 1.0) < 1e-14
    assert abs(q1_closed(math.pi) - 1.0) < 1e-14


def test_crc_exact_identities():
    reports = crc_exact_identities(order=12, tol=1e-12)
    assert all(r.status == "pass" for r in reports)
    assert max(r.max_error for r in reports) < 1e-12


@pytest.mark.parametrize("order", [12, 20])
def test_change_of_variables_is_exactly_tau(order):
    # g(f(tau)) = tau over the rationals, so the identity reads 0.0
    u = change_of_variables(order)
    assert u.terms == {(1,): 1}
    exact = crc_exact_identities(order=order)[0]
    assert exact.identity.startswith("Q2*(1+Q1)")
    assert exact.max_error == 0.0 and exact.status == "pass"


def _perturbed(series_fn, power, name):
    def perturbed(n, order):
        s = series_fn(n, order)
        return s + PuiseuxSeries.monomial(s.roster, s.order, {name: power},
                                          F(1, 1000))
    return perturbed


def test_exact_identity_catches_perturbed_f(monkeypatch):
    monkeypatch.setattr("orbimirror.crc.wpn_f_series",
                        _perturbed(wpn_f_series, 5, "t"))
    exact, cont = crc_exact_identities(order=12)
    assert exact.status == "fail" and exact.max_error == 0.001
    assert exact.worst_point["tau_power"] == 5
    assert cont.status == "pass"


def test_continuation_catches_perturbed_g(monkeypatch):
    # f is recomputed as the inverse of the perturbed g, so only the
    # comparison with the Gamma-value continuation can see the change
    monkeypatch.setattr("orbimirror.crc.wpn_g_series",
                        _perturbed(wpn_g_series, 3, "x"))
    exact, cont = crc_exact_identities(order=12)
    assert exact.status == "pass" and exact.max_error == 0.0
    assert cont.status == "fail" and cont.worst_point["x_power"] == 3


def test_crc_numeric_samples(monkeypatch):
    rep = crc_numeric_samples(tol=1e-10)
    assert rep.status == "pass"
    assert rep.max_error < 1e-10
    assert SAMPLES == 20 and rep.worst_point["sample"] < SAMPLES
    # exactly SAMPLES points are evaluated
    monkeypatch.setattr("orbimirror.crc.SAMPLES", 1)
    assert crc_numeric_samples().worst_point["sample"] == 0


def test_crc_numeric_deterministic():
    a = crc_numeric_samples(tol=1e-10).to_json()
    b = crc_numeric_samples(tol=1e-10).to_json()
    assert a == b


def test_crc_verify_n2_and_n3():
    rep2 = crc_verify(2, order=10, tol=1e-10)
    assert all(r.status == "pass" for r in rep2)
    rep3 = crc_verify(3, order=8, tol=1e-10)
    assert all(r.status == "pass" for r in rep3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_crc_verify_reflection_form(n):
    # one report for n >= 3: the Gamma(1 - 1/n) coefficient against its
    # Gamma(1/n) reflection form
    (rep,) = crc_verify(n, order=10)
    assert rep.status == "pass" and rep.max_error < 1e-14
    assert rep.worst_point == {"x_power": 1}
    assert "W_X = W_Y(Q) is not compared" in continuation_wpn(n).note


def _gamma_swapped(n, order=10):
    # continuation_wpn with Gamma(l/n) in place of Gamma(1 - l/n)
    cont = continuation_wpn(n, order)
    coeffs = dict(cont.coefficients)
    c = -math.pi / (math.gamma(1 / n) ** n * math.sin(math.pi / n))
    if n % 2 == 0:
        c *= complex(math.cos(math.pi / n), -math.sin(math.pi / n))
    coeffs[1] = c
    return ContinuationFormula(n, cont.parity, cont.constant, coeffs,
                               cont.note)


@pytest.mark.parametrize("n", [3, 4])
def test_crc_verify_catches_swapped_gamma(monkeypatch, n):
    monkeypatch.setattr("orbimirror.crc.continuation_wpn", _gamma_swapped)
    (rep,) = crc_verify(n, order=10)
    assert rep.status == "fail" and rep.max_error > 0.1


def test_crc_verify_n3_holds_to_tol():
    assert crc_verify(3, order=8, tol=1e-30)[0].status == "fail"


def test_specialization():
    reports = specialization_check(2)
    assert all(r.status == "pass" for r in reports)
    with pytest.raises(UnsupportedN):
        specialization_check(pair_wpn_index(wpn_pair(3)))
    with pytest.raises(UnsupportedN):
        specialization_check(None)
    # each report is held to min(tol, its bound)
    assert specialization_check(2, tol=1e-30)[1].status == "fail"


def test_pair_report_wpn():
    rep = pair_report(wpn_pair(2), order=10)
    assert rep["crepancy"]["crepant"] and rep["crepancy"]["refinement"]
    assert rep["gluing"]["y_of_u"] == [[1, 2], [0, 1]]
    assert rep["wpn"] == 2
    assert all(r["status"] == "pass" for r in rep["reports"])


def test_pair_report_non_family():
    pair = ResolutionPair.make(p2_fan(), p2_fan())
    rep = pair_report(pair, order=6)
    assert rep["crepancy"]["crepant"]
    assert "not implemented" in rep["continuation"]
