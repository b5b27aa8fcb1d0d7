"""Mirror theorems: normalization, mirror maps, potentials, disc counts."""

import itertools
import json
import math
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbimirror.crc import wpn_g_series
import orbimirror.mirror
from orbimirror.extended import (BasisShapeInfeasibleError,
                                EnumerationUnboundedError, build_extended,
                                keff_enumerate)
from orbimirror.families import (f2_fan, kp_bundle_fan, p1_orbifold, p2_fan,
                                 wpn_fan)
from orbimirror.fan import compute_box, fan_from_json, star_subdivide_xbar
from orbimirror.mirror import (MirrorShapeViolation, NotFanoError,
                               NotGorensteinError, _pairing_factor,
                               check_normalization, closed_h0_z2,
                               extract_open_gw, hori_vafa, i_function,
                               lf_superpotential, mirror_map,
                               open_closed_bridge)
from orbimirror.series import (PuiseuxSeries, multivar_invert, series_exp,
                               substitute)
from strategies import hirzebruch_fan

FANS = Path(__file__).resolve().parent.parent / "fans"


@pytest.mark.parametrize("fan,order", [
    (p2_fan(), 6), (f2_fan(), 6), (wpn_fan(2), 6), (wpn_fan(3), 6),
    (p1_orbifold(3, 5), 3),
])
def test_i_function_normalization(fan, order):
    iseries = i_function(build_extended(fan), order)
    ok, errors = check_normalization(iseries)
    assert ok, errors


# the untwisted sector of P(1,1,1,1,4) and its sectors of age 1 and 2
NU0, NU1, NU2 = (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2)


def _p114_i_function():
    ext = build_extended(wpn_fan(4))
    return ext, i_function(ext, 4)


# each case copies the terms of one key of the real P(1,1,1,1,4)
# I-function to a new key that breaks one normalization rule; with
# new = None the constant key holds 2 at delta = 0 in place of 1
@pytest.mark.parametrize("old,new,message", [
    ((NU1, -1, (0,)), (NU1, 1, (0,)),
     "positive z-power 1 in sector (0, 0, 0, 1) at pbar^(0,)"),
    ((NU0, 0, (0,)), (NU2, 0, (0,)),
     "unexpected z^0 term in sector (0, 0, 0, 2) at pbar^(0,)"),
    ((NU0, 0, (0,)), None,
     "unexpected z^0 term in sector (0, 0, 0, 0) at pbar^(0,)"),
    ((NU1, -1, (0,)), (NU0, -1, (2,)),
     "1/z term of pbar-degree 2 at pbar^(2,)"),
    ((NU1, -1, (0,)), (NU2, -1, (0,)),
     "1/z term outside H^2_orb in sector (0, 0, 0, 2) at pbar^(0,)"),
    ((NU1, -1, (0,)), (NU1, -1, (1,)),
     "1/z term outside H^2_orb in sector (0, 0, 0, 1) at pbar^(1,)"),
])
def test_check_normalization_rejects_each_broken_rule(old, new, message,
                                                      monkeypatch):
    ext, iseries = _p114_i_function()
    assert check_normalization(iseries) == (True, [])
    if new is None:
        iseries.coeffs[old] = {(0, 0): F(2)}
    else:
        assert new not in iseries.coeffs
        iseries.coeffs[new] = dict(iseries.coeffs[old])
    assert check_normalization(iseries) == (False, [message])
    monkeypatch.setattr(orbimirror.mirror, "i_function", lambda *args: iseries)
    with pytest.raises(MirrorShapeViolation, match=re.escape(message)):
        mirror_map(ext, 4)


def test_check_normalization_admits_the_a_and_b_keys():
    # an untwisted 1/z key of pbar-degree 1 (an A_a) and a twisted one in
    # an age-1 sector without pbar (a B_b) are both in H^2_orb
    _, iseries = _p114_i_function()
    assert (NU0, -1, (1,)) not in iseries.coeffs
    iseries.coeffs[(NU0, -1, (1,))] = dict(iseries.coeffs[(NU1, -1, (0,))])
    assert check_normalization(iseries) == (True, [])


def _oracle_product(ext, kel):
    """prod_j prod_a (Dbar_j + a z)^{+-1} as a dict (zexp, pexp) -> Fraction,
    truncated at pbar-degree n.

    For p = <D_j, delta> the numerator runs over a = p mod 1 with
    p < a <= 0 and the denominator over a = p mod 1 with 0 < a <= p;
    Dbar_j = sum_a basis[a][j] pbar_a, and Dbar_j = 0 on extended rays.
    Each 1/(Dbar_j + a z) is the geometric series
    sum_i (-Dbar_j)^i / (a z)^(i + 1).
    """
    n, r = ext.dim, ext.r
    zero = (0,) * r

    def mul(x, y):
        out = {}
        for (z1, p1), c1 in x.items():
            for (z2, p2), c2 in y.items():
                pe = tuple(u + v for u, v in zip(p1, p2))
                if sum(pe) <= n:
                    key = (z1 + z2, pe)
                    out[key] = out.get(key, 0) + c1 * c2
        return {k: v for k, v in out.items() if v}

    prod = {(0, zero): F(1)}
    for j, P in enumerate(kel.pairings):
        p = F(P, ext.den)
        dbar = {}
        if j < ext.m:
            for a in range(r):
                if ext.basis[a][j]:
                    unit = tuple(int(b == a) for b in range(r))
                    dbar[(0, unit)] = F(ext.basis[a][j])
        a = p + 1
        while a <= 0:
            factor = dict(dbar)
            if a:
                factor[(1, zero)] = a
            prod = mul(prod, factor)
            a += 1
        a = p
        while a > 0:
            ratio = {(z - 1, pe): -c / a for (z, pe), c in dbar.items()}
            term = {(-1, zero): 1 / a}
            inverse = dict(term)
            for _ in range(n):
                term = mul(term, ratio)
                for key, c in term.items():
                    inverse[key] = inverse.get(key, 0) + c
            prod = mul(prod, inverse)
            a -= 1
    return prod


@pytest.mark.parametrize("fan,order", [
    (wpn_fan(2), 8), (wpn_fan(3), 10), (f2_fan(), 6), (kp_bundle_fan(3), 5),
    # n = 4 truncation, and fractional pairings on extended indices
    (wpn_fan(4), 8), (p1_orbifold(3, 5), 3),
    # n = 5 truncation, and n = 4 in two pbar variables
    (wpn_fan(5), 8), (kp_bundle_fan(4), 6),
    # the non-Fano F_3 and F_4: classes of z-weight <= -1, whose pairing
    # factors reach Dbar_j^2
    (hirzebruch_fan(3), 4), (hirzebruch_fan(3), 6), (hirzebruch_fan(4), 4),
    (hirzebruch_fan(4), 6),
])
def test_i_function_matches_product_oracle(fan, order):
    ext = build_extended(fan)
    iseries = i_function(ext, order)
    closed = closed_h0_z2(ext, order)
    n, r = ext.dim, ext.r
    monomials = [pe for pe in itertools.product(range(n + 1), repeat=r)
                 if sum(pe) <= n]
    # the full K_eff, so the classes the enumeration prunes at c > 1
    # (c > 2 for closed_h0_z2) are checked to read 0 as well
    elements = keff_enumerate(ext, order)
    stored = {delta for terms in iseries.coeffs.values() for delta in terms}
    assert len(stored) < len(elements)  # some classes skipped
    closed_terms = 0
    for kel in elements:
        want = _oracle_product(ext, kel)
        for z in (1, 0, -1):
            for pe in monomials:
                got = iseries.coeffs.get((kel.nu, z, pe), {}).get(kel.delta, 0)
                assert got == want.get((z, pe), 0), (kel.delta, z, pe)
        if not any(kel.nu):
            h0 = want.get((-2, (0,) * r), 0)
            y = {f"y{a + 1}": F(x, ext.den) for a, x in enumerate(kel.delta)}
            assert closed.coefficient(y) == h0, kel.delta
            closed_terms += bool(h0)
    assert len(closed.terms) == closed_terms


def _series_mul(x, y, deg):
    out = [F(0)] * (deg + 1)
    for i, a in enumerate(x[:deg + 1]):
        for j, b in enumerate(y[:deg + 1 - i]):
            out[i + j] += a * b
    return out


def _gamma_ratio_reference(p, n):
    """prod (x + a) over a = p mod 1 with p < a <= 0, divided by the same
    product over 0 < a <= p, expanded as a power series in x and
    truncated at x^n: its coefficients c_0..c_n."""
    prod = [F(1)] + [F(0)] * n
    a = p + 1
    while a <= 0:
        prod = _series_mul(prod, [a, F(1)], n)
        a += 1
    a = p
    while a > 0:
        # 1/(x + a) = sum_i (-x)^i / a^(i + 1)
        prod = _series_mul(prod, [F(-1) ** i / a ** (i + 1)
                                  for i in range(n + 1)], n)
        a -= 1
    return tuple(prod)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 6)),
                min_size=1, max_size=6),
       st.integers(1, 5))
@example([(-3, 1), (0, 1), (5, 1), (-40, 1)], 4)  # integers: vanishing c_0
@example([(-1, 2), (-5, 6), (0, 3)], 3)           # (-1, 0]: trivial
@example([(7, 3), (-7, 3), (1, 1), (-1, 1)], 5)  # both directions, n = 5
def test_pairing_factor_matches_gamma_ratio_product(pairs, n):
    # p = a/b is the numerator a over L = b. A cache is keyed by the
    # numerator within one L, so the draws share one cache per L, and
    # later pairings reuse earlier chains
    caches = {}
    for a, b in pairs:
        p = F(a, b)
        N, D = _pairing_factor(a, b, n, caches.setdefault(b, {}))
        assert tuple(F(x, D) for x in N) == _gamma_ratio_reference(p, n), p
        assert D > 0 and math.gcd(D, *N) == 1, p


def test_i_function_rejects_a_vanishing_factor_on_an_extended_index(monkeypatch):
    # Dbar_j = 0 on an extended index j, so a pairing in Z_{<0} there
    # (which K_eff excludes) would make the whole coefficient vanish
    ext = build_extended(wpn_fan(2))
    zero = next(k for k in keff_enumerate(ext, 4) if not any(k.pairings))
    pairings = list(zero.pairings)
    pairings[ext.m] = -ext.den
    bad = zero._replace(pairings=tuple(pairings))
    monkeypatch.setattr(orbimirror.mirror, "keff_enumerate", lambda *args: [bad])
    with pytest.raises(AssertionError, match="vanishing factor on an extended index"):
        i_function(ext, 4)


def test_bridge_computes_i_function_once(monkeypatch):
    calls = []
    real = orbimirror.mirror.i_function

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(orbimirror.mirror, "i_function", counting)
    fan = wpn_fan(2)
    rep = open_closed_bridge(fan, (0, 1), order=10)
    assert rep.cross_checked and rep.match
    assert len(calls) == 1


def test_mirror_map_p112_twisted_closed_form():
    # tau_2(y) = g(y1^{-1/2} y2) with g the inverse of the disc potential
    ext = build_extended(wpn_fan(2))
    mm = mirror_map(ext, 8)
    assert mm.q_names == ("q1",) and mm.tau_names == ("tau2",)
    assert mm.q_denoms == (2,)
    # the untwisted direction receives no correction
    assert mm.log_corrections[0].is_zero()
    g = wpn_g_series(2, 16)
    # exponent keys are scaled by the denominators (2, 1): y1^{-k/2} y2^k
    expected = {(-k, k): c for (k,), c in g.terms.items()}
    assert dict(mm.tau[0].terms) == expected


def test_mirror_map_f2_closed_form():
    # log q1 = log y1 + 2 H(y1), log q2 = log y2 - H(y1) with
    # H(z) = sum (2k-1)!/(k!)^2 z^k along the rigid fiber class
    ext = build_extended(f2_fan())
    mm = mirror_map(ext, 6)
    A1, A2 = mm.log_corrections
    h = [F(math.factorial(2 * k - 1), math.factorial(k) ** 2)
         for k in range(1, 7)]
    assert [A1.coefficient({"y1": k}) for k in range(1, 7)] == [2 * c for c in h]
    assert [A2.coefficient({"y1": k}) for k in range(1, 7)] == [-c for c in h]
    # no dependence on the base class
    assert all(e[1] == 0 for e in A1.terms)
    assert all(e[1] == 0 for e in A2.terms)


def test_mirror_map_f2_inverse_and_catalan():
    ext = build_extended(f2_fan())
    mm = mirror_map(ext, 6)
    # the inverse along the rigid fiber class is q1/(1+q1)^2
    y1 = mm.inverse()[0]
    for k in range(1, 7):
        assert y1.coefficient({"q1": k}) == F((-1) ** (k + 1) * k)
    # exp(H) has Catalan coefficients; A2 = -H
    from orbimirror.series import series_exp
    exp_h = series_exp(mm.log_corrections[1].scale(-1))
    catalan = [1, 1, 2, 5, 14, 42, 132]
    assert [exp_h.coefficient({"y1": k}) for k in range(7)] == catalan


def test_mirror_map_roundtrip_p2():
    ext = build_extended(p2_fan())
    mm = mirror_map(ext, 8)
    assert mm.log_corrections[0].is_zero()  # Fano with no corrections at r=1?
    Y = mm.inverse()
    assert Y[0].coefficient({"q1": 1}) == 1


def test_hori_vafa_f2():
    ext = build_extended(f2_fan())
    hv = hori_vafa(ext, order=6)
    assert hv.gauge == (0, 2)
    coefs = {t.ray_index: t.coefficient for t in hv.terms}
    assert coefs[0].constant_term() == 1 and coefs[2].constant_term() == 1
    assert coefs[1].sorted_terms() == [((F(1), F(2)), F(1))]  # y1 y2^2
    assert coefs[3].sorted_terms() == [((F(0), F(1)), F(1))]  # y2


@pytest.mark.parametrize("name", sorted(p.stem for p in FANS.glob("*.json")))
def test_hori_vafa_exponents_give_each_monomial(name):
    # C_j = prod_a y_a^exponents[a], with prod_j C_j^{D_j(e_a)} = y_a for
    # each basis class e_a, and C_j = 1 on the first maximal cone; the
    # LF terms carry the same exponents
    fan = fan_from_json(json.loads((FANS / f"{name}.json").read_text()))
    ext = build_extended(fan)
    hv = hori_vafa(ext, order=6)
    roster = hv.terms[0].coefficient.roster
    for t in hv.terms:
        assert t.coefficient == PuiseuxSeries.monomial(
            roster, 6, dict(zip(roster.names, t.exponents)))
        if t.ray_index in fan.max_cones[0]:
            assert not any(t.exponents)
    for a, row in enumerate(ext.basis):
        for b in range(ext.r_prime):
            assert sum(row[t.ray_index] * t.exponents[b]
                       for t in hv.terms) == (a == b)
    if name != "p1_3_5":    # its tau relation cannot be inverted
        lf = lf_superpotential(ext, 4)
        assert [t.exponents for t in lf.potential.terms] == \
            [t.exponents for t in hv.terms]


@pytest.mark.parametrize("b0,direction", [((1, 0), 5), ((-1, 2), 4)])
def test_hori_vafa_runs_where_the_units_are_unbounded(b0, direction):
    # X-bar of P(1,1,2) at a ray has a cone with a unit of weight 0, so
    # K_eff cannot be enumerated; the Hori-Vafa terms need no weights
    xbar = star_subdivide_xbar(wpn_fan(2), b0).fan
    ext = build_extended(xbar)
    assert len(hori_vafa(ext, 4).terms) == 6
    with pytest.raises(EnumerationUnboundedError,
                       match=rf"^direction {direction} of cone \(0, 1\) has "
                             r"nonpositive weight 0$"):
        ext.cone_units


# F2 with the -2 ray (0, 1) first, so that the first maximal cone holds it
F2_RELABELLED = {"dim": 2, "stacky_vectors": [[0, 1], [1, 0], [-1, 2], [0, -1]],
                 "max_cones": [[0, 1], [1, 3], [2, 3], [0, 2]]}


def _keyed_by_vector(fan):
    """The basis classes and the open invariants at order 6, with each
    ray index replaced by the ray's vector."""
    ext = build_extended(fan)
    vectors = ext.all_vectors()
    tab = extract_open_gw(lf_superpotential(ext, 6), ext)
    return ([dict(zip(vectors, row)) for row in ext.basis],
            {(vectors[j], qe, te): v for (j, qe, te), v in tab.entries.items()})


def test_relabelled_f2_has_the_same_basis_classes():
    # so that its q-exponents mean what they mean for F2
    assert _keyed_by_vector(fan_from_json(F2_RELABELLED))[0] == \
        _keyed_by_vector(f2_fan())[0]


@pytest.mark.xfail(strict=True, reason="the gauge is the first maximal cone, "
                   "so the invariants depend on the ray labels")
def test_open_gw_f2_does_not_depend_on_ray_labels():
    # the relabelled fan puts 1 + Q1 on (0, -1) and 1 - 2Q1 + 3Q1^2 - ...
    # on (-1, 2), where F2 has 1 + Q1 on (0, 1) and 1 on the others
    assert _keyed_by_vector(fan_from_json(F2_RELABELLED))[1] == \
        _keyed_by_vector(f2_fan())[1]


def test_lf_superpotential_f2():
    # W^LF = z1 + z2 + Q1 Q2^2/(z1 z2^2) + Q2 (1 + Q1)/z2
    ext = build_extended(f2_fan())
    lf = lf_superpotential(ext, 8)
    assert lf.status == "proved (manifold)"
    coefs = {t.ray_index: t.coefficient for t in lf.potential.terms}
    one = [((F(0), F(0)), F(1))]
    assert coefs[0].sorted_terms() == one
    assert coefs[2].sorted_terms() == one
    assert coefs[1].sorted_terms() == [((F(1), F(2)), F(1))]
    assert coefs[3].sorted_terms() == [((F(0), F(1)), F(1)),
                                       ((F(1), F(1)), F(1))]


def test_open_gw_f2():
    ext = build_extended(f2_fan())
    tab = extract_open_gw(lf_superpotential(ext, 8), ext)
    expected = {
        (0, (F(0), F(0)), ()): F(1),
        (1, (F(0), F(0)), ()): F(1),
        (2, (F(0), F(0)), ()): F(1),
        (3, (F(0), F(0)), ()): F(1),
        (3, (F(1), F(0)), ()): F(1),
    }
    assert tab.entries == expected


def test_open_gw_f2_generating_orders():
    # rays 1 and 3 carry the shifts q1^{-1} q2^{-2} and q2^{-1}: a
    # coefficient known to O(6) gives a generating series known only to
    # O(3) and O(5)
    ext = build_extended(f2_fan())
    tab = extract_open_gw(lf_superpotential(ext, 6), ext)
    assert {j: s.order for j, s in tab.generating.items()} == {
        0: 6, 1: 3, 2: 6, 3: 5}


def test_open_gw_p112_closed_form():
    # n with l twisted insertions is (-1)^j / 4^j at l = 2j + 1
    fan = wpn_fan(2)
    ext = build_extended(fan)
    tab = extract_open_gw(lf_superpotential(ext, 14), ext)
    assert tab.status == "proved (P(1,...,1,n) family)"
    zero_q = (F(0),)
    got = {te[0]: v for (j, qe, te), v in tab.entries.items()
           if j == 3 and qe == zero_q and sum(te) > 0}
    assert got == {2 * j + 1: F((-1) ** j, 4 ** j) for j in range(7)}


def test_bridge_p112():
    fan = wpn_fan(2)
    rep = open_closed_bridge(fan, (0, 1), order=10)
    assert rep.xbar.replaced_ray
    assert rep.cross_checked and rep.match


def test_bridge_p113():
    fan = wpn_fan(3)
    nu = next(el.nu for el in compute_box(fan) if el.age == 1)
    rep = open_closed_bridge(fan, nu, order=8)
    assert rep.cross_checked and rep.match


def test_bridge_requires_gorenstein():
    fan = p1_orbifold(3, 5)
    with pytest.raises(NotGorensteinError):
        open_closed_bridge(fan, fan.stacky_vectors[0])


def test_bridge_requires_fano():
    fan = f2_fan()
    with pytest.raises(NotFanoError):
        open_closed_bridge(fan, fan.stacky_vectors[0])


@pytest.mark.parametrize("b0", [(1, 1), (0, 2), (0, 0)])
def test_bridge_rejects_a_vector_that_names_no_basic_class(b0):
    with pytest.raises(ValueError, match=re.escape(str(b0))):
        open_closed_bridge(wpn_fan(2), b0, order=6)


# The outcome at order 6 for every basic class of P(1,...,1,n), n = 2, 3,
# 4, keyed by its boundary vector: (cross_checked, match), or the error
# raised. Only a class whose X-bar is X itself is compared today; growing
# the bridge to compare on the subdivided model (ROADMAP item 7) will
# change this table on purpose.
BRIDGE_OUTCOMES = [
    (2, (0, 1), (True, True)),
    (2, (1, 0), EnumerationUnboundedError),
    (2, (-1, 2), EnumerationUnboundedError),
    (2, (0, -1), (False, None)),
    (3, (0, 0, 1), (True, True)),
    (3, (0, 0, 2), (False, None)),
    (3, (1, 0, 0), (False, None)),
    (3, (0, 1, 0), (False, None)),
    (3, (-1, -1, 3), (False, None)),
    (3, (0, 0, -1), (False, None)),
    (4, (0, 0, 0, 1), (True, True)),
    (4, (0, 0, 0, 2), BasisShapeInfeasibleError),
    (4, (0, 0, 0, 3), (False, None)),
    (4, (1, 0, 0, 0), (False, None)),
    (4, (0, 1, 0, 0), (False, None)),
    (4, (0, 0, 1, 0), (False, None)),
    (4, (-1, -1, -1, 4), (False, None)),
    (4, (0, 0, 0, -1), (False, None)),
]


def test_bridge_outcome_table_covers_every_basic_class():
    for n in (2, 3, 4):
        fan = wpn_fan(n)
        listed = {b0 for k, b0, _ in BRIDGE_OUTCOMES if k == n}
        assert listed == {el.nu for el in fan.box} | set(fan.stacky_vectors)


@pytest.mark.parametrize("n,b0,outcome", BRIDGE_OUTCOMES)
def test_bridge_outcome_table(n, b0, outcome):
    if isinstance(outcome, tuple):
        rep = open_closed_bridge(wpn_fan(n), b0, order=6)
        assert (rep.cross_checked, rep.match) == outcome
    else:
        with pytest.raises(outcome):
            open_closed_bridge(wpn_fan(n), b0, order=6)


def test_lf_consistency_with_hv():
    # substituting the forward mirror map into W^LF recovers W^HV
    ext = build_extended(f2_fan())
    order = 8
    lf = lf_superpotential(ext, order)
    mm = lf.mirror
    hv = hori_vafa(ext, order=order)
    y1 = lf.chart_images["y1"]
    # chart image inverts the map: log q1 = log y1 + A1(y1) evaluated on
    # the image must give back q1
    from orbimirror.series import series_exp
    A1_of_Y = substitute(mm.log_corrections[0], lf.chart_images, order)
    prod = y1 * series_exp(A1_of_Y)
    q = PuiseuxSeries.monomial(prod.roster, prod.order, {"q1": 1})
    assert prod == q.truncate(prod.order)


def _round_trip(mm, Y, order):
    """Y_a exp(A_a(Y)) - q_a and B_b(Y) - tau_b, substituted at `order`."""
    images = dict(zip(mm.log_corrections[0].roster.names, Y))
    out = []
    for a, A in enumerate(mm.log_corrections):
        prod = Y[a] * series_exp(substitute(A, images, order))
        out.append(prod - PuiseuxSeries.monomial(prod.roster, prod.order,
                                                 {mm.q_names[a]: 1}))
    for b, B in enumerate(mm.tau):
        back = substitute(B, images, order)
        out.append(back - PuiseuxSeries.monomial(back.roster, back.order,
                                                 {mm.tau_names[b]: 1}))
    return out


# the benchmark's open-gw orders, order 10 for P1 and P2, and two
# orders the one-order-per-pass fixed point could not reach in seconds
@pytest.mark.parametrize("name, order", [
    ("f2", 12), ("kp3", 8), ("p1", 10), ("p2", 10), ("p112", 14),
    ("p113", 22), ("p114", 14), ("f2", 20), ("p113", 30)])
def test_inverse_round_trips_at_requested_order(name, order):
    ext = build_extended(fan_from_json(json.loads((FANS / f"{name}.json").read_text())))
    mm = mirror_map(ext, order)
    Y = mm.inverse()
    assert all(y.order == order for y in Y)
    # substituted back, the inverse gives q and tau exactly, as far as
    # the substitution reaches: the tau relation's y1^{-1/n} lowers it
    # by 1/n on P(1,...,1,n)
    diffs = _round_trip(mm, Y, order)
    assert all(d.is_zero() for d in diffs)
    assert [d.order for d in diffs] == [order] * len(mm.q_names) + \
        [order - F(1, mm.q_denoms[0])] * len(mm.tau_names)
    # the inverse of the same map to one order more agrees with Y and
    # round-trips exactly to the requested order
    Y_hi = multivar_invert(mm.log_corrections, mm.tau, mm.q_names,
                           mm.tau_names, mm.q_denoms, order + 1)
    assert [y.truncate(order) for y in Y_hi] == Y
    for d in _round_trip(mm, Y_hi, order):
        assert d.is_zero() and d.order == order


def test_newton_inversion_doubles_the_order(monkeypatch):
    # F2 to order 20: the residual is substituted once per Newton step,
    # at orders 19 (the starting point), 4, 8, 16, 19 and 19 (the final
    # check), where a fixed point gains one order per pass
    mm = mirror_map(build_extended(f2_fan()), 20)
    A1 = mm.log_corrections[0]
    real = orbimirror.series.substitute
    residuals = []

    def counting(s, images, order=None):
        if s is A1:
            residuals.append(order)
        return real(s, images, order)

    monkeypatch.setattr(orbimirror.series, "substitute", counting)
    mm.inverse()
    assert len(residuals) <= 8
