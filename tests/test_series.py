"""Truncated Puiseux series: arithmetic, powers, inversion, substitution."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbimirror import series
from orbimirror.series import (BadConstantTerm, BranchCutViolation,
                               InversionNotConverged, PowerLadder,
                               PuiseuxSeries, RosterMismatch, ZeroLinearTerm,
                               _rational_root, eval_complex, lagrange_invert,
                               make_roster, multivar_invert, series_compose,
                               series_exp, series_from_json, series_log,
                               series_pow, series_to_json, substitute)

R1 = make_roster(["t"])


def uni(terms, order=12, roster=R1):
    return PuiseuxSeries(roster, order, {(k,): F(v) for k, v in terms.items()})


coef = st.fractions(min_value=-5, max_value=5, max_denominator=6)

uni_series = st.dictionaries(st.integers(1, 8), coef, min_size=0, max_size=6)


def test_basic_arithmetic():
    a = uni({1: 1, 2: 3})
    b = uni({1: -1, 3: F(1, 2)})
    assert (a + b).sorted_terms() == [((F(2),), F(3)), ((F(3),), F(1, 2))]
    assert (a * b).coefficient({"t": 3}) == F(-3)
    assert (a * b).coefficient({"t": 4}) == F(1, 2)
    assert (a - a).is_zero()


def test_truncation_by_weight():
    a = uni({1: 1, 5: 1}, order=3)
    assert a.coefficient({"t": 5}) == 0
    assert (a * a).order == 3


def test_exp_log_inverse():
    s = uni({1: 1, 2: F(-1, 3)})
    assert series_log(series_exp(s) ) == s
    with pytest.raises(BadConstantTerm):
        series_exp(uni({0: 1, 1: 1}))


@st.composite
def positive_series(draw):
    """A series of positive valuation in 1-3 variables with mixed
    denominators, some of them formal."""
    formal = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    denoms = [1 if f else draw(st.sampled_from([1, 2, 3])) for f in formal]
    roster = make_roster([f"y{i}" for i in range(len(formal))], denoms, formal)
    exps = st.tuples(*[st.integers(0 if f else -3, 6) for f in formal])
    terms = draw(st.dictionaries(exps, coef, max_size=4))
    order = draw(st.fractions(min_value=0, max_value=4, max_denominator=6))
    return PuiseuxSeries(roster, order, {e: c for e, c in terms.items()
                                         if roster.weight(e) > 0})


@settings(max_examples=60, deadline=None)
@given(uni_series.map(lambda terms: uni(terms, order=10)) | positive_series())
def test_exp_log_roundtrip(s):
    back = series_log(series_exp(s))
    assert back.terms == s.terms and back.order == s.order


@settings(max_examples=60, deadline=None)
@given(uni_series)
def test_square_matches_pow(terms):
    s = uni(terms, order=10)
    if s.is_zero():
        return
    # the power extends beyond the input order; agreement is required on
    # the common range
    assert series_pow(s, 2).truncate(10) == (s * s).truncate(10)


def test_pow_rational():
    rq = make_roster(["q"], [2])
    s = PuiseuxSeries(rq, 6, {(2,): F(1), (4,): F(2)})  # q + 2q^2
    half = series_pow(s, F(1, 2))
    assert (half * half).truncate(min(6, half.order)) == s.truncate(min(6, half.order))
    inv = series_pow(s, -1)
    one = PuiseuxSeries.constant(rq, inv.order, 1)
    assert (inv * s).truncate(inv.order - 1) == one.truncate(inv.order - 1)


sixths = st.sampled_from([F(1, 2), F(-1, 3), F(2, 3), F(3, 2), F(-1), F(2),
                          F(1, 6), F(-5, 6)])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(7, 16), coef, max_size=5), sixths, sixths)
def test_pow_adds_exponents(tail, a, b):
    # s = q^3 + ... in halves of q, so its powers by sixths keep the lattice
    rq = make_roster(["q"], [2])
    s = PuiseuxSeries(rq, 8, {(6,): F(1), **{(k,): c for k, c in tail.items()}})
    pa, pb, pab = series_pow(s, a), series_pow(s, b), series_pow(s, a + b)
    # s**e is known to v*e + (order - v), here 3e + 5; a monomial's power
    # is exact and keeps the order
    assert pab.order == (3 * (a + b) + 5 if len(s.terms) > 1 else 8)
    prod = pa * pb
    common = min(prod.order, pab.order)
    assert prod.truncate(common).terms == pab.truncate(common).terms


def test_powers_off_the_exponent_lattice_raise():
    rq = make_roster(["q", "u"], [1, 1], [False, True])
    with pytest.raises(ValueError, match="denominator bound"):
        series_pow(PuiseuxSeries(rq, 6, {(1, 0): F(1), (2, 0): F(1)}), F(1, 2))
    with pytest.raises(ValueError, match="not admissible on a formal variable"):
        series_pow(PuiseuxSeries(rq, 6, {(0, 1): F(1), (1, 1): F(1)}), -1)
    # y^{1/2} at y = q would be q^{1/2}, off the target's integer lattice
    ry = make_roster(["y"], [2])
    with pytest.raises(ValueError, match="denominator bound"):
        substitute(PuiseuxSeries(ry, 6, {(1,): F(1)}),
                   {"y": PuiseuxSeries.monomial(rq, 6, {"q": 1})})


@pytest.mark.parametrize("c, e, root", [
    (F((10 ** 20 + 1) ** 3), F(1, 3), F(10 ** 20 + 1)),
    (F(3 ** 80), F(1, 2), F(3 ** 40)),
    (F(7 ** 400), F(1, 2), F(7 ** 200)),
    (F(2 ** 90, 5 ** 60), F(2, 3), F(2 ** 60, 5 ** 40)),
])
def test_rational_root_exact_on_large_powers(c, e, root):
    # integers far beyond float precision (and, for 7**400, float range)
    assert _rational_root(c, e) == root


@pytest.mark.parametrize("c, e", [(F(2 ** 200 + 1), F(1, 2)),
                                  (F(2 ** 200 + 1), F(1, 5)),
                                  (F(1, 3 ** 80 + 1), F(1, 2))])
def test_rational_root_of_non_power_raises(c, e):
    with pytest.raises(ValueError, match="no integer"):
        _rational_root(c, e)


def test_pow_high_power_keeps_order():
    # the k-th power of a series of valuation v is reliable up to
    # kv + (order - v), beyond the input order
    s = uni({1: 1, 2: 1}, order=5)
    p = series_pow(s, 3)
    assert p.order == F(7)
    brute = (s * s) * s
    for k in range(3, 6):
        assert p.coefficient({"t": k}) == brute.coefficient({"t": k})


def test_lagrange_invert_sin_like():
    import math
    # g = 2*sin(t/2) has inverse 2*arcsin(t/2)
    g = PuiseuxSeries(R1, 9, {(2 * k + 1,): F((-1) ** k, math.factorial(2 * k + 1) * 4 ** k)
                              for k in range(5)})
    f = lagrange_invert(g, 9)
    comp = series_compose(g, f)
    t = PuiseuxSeries.monomial(R1, comp.order, {"t": 1})
    assert comp == t.truncate(comp.order)
    # arcsin expansion: t + t^3/24 + 3 t^5/640
    assert f.coefficient({"t": 3}) == F(1, 24)
    assert f.coefficient({"t": 5}) == F(3, 640)


def test_lagrange_invert_raises_when_composition_disagrees(monkeypatch):
    # the inverse is found without series_compose and checked with it, so
    # a wrong composition shows as a failed check, not as a wrong answer
    g = PuiseuxSeries(R1, 9, {(1,): F(1), (3,): F(-1, 24), (5,): F(1, 1920)})
    real = series.series_compose

    def perturbed(outer, inner):
        out = real(outer, inner)
        return out + PuiseuxSeries.monomial(out.roster, out.order, {"t": 5}, F(1, 7))

    assert lagrange_invert(g, 9).coefficient({"t": 3}) == F(1, 24)
    monkeypatch.setattr(series, "series_compose", perturbed)
    with pytest.raises(InversionNotConverged, match="differs from t"):
        lagrange_invert(g, 9)


def test_lagrange_invert_requires_linear_term():
    with pytest.raises(ZeroLinearTerm):
        lagrange_invert(uni({2: 1}), 8)
    with pytest.raises(ZeroLinearTerm):
        lagrange_invert(uni({0: 1, 1: 1}), 8)


@pytest.mark.parametrize("exps,order", [
    ({"q": F(-3, 2)}, F(5, 2)),          # negative weight lowers the order
    ({"q": F(1, 2), "u": 1}, F(11, 2)),  # positive weight raises it
])
def test_shift_moves_order_by_weight(exps, order):
    rq = make_roster(["q", "u"], [2, 1])
    s = PuiseuxSeries(rq, 4, {(2, 0): F(1), (0, 3): F(-2), (8, 0): F(5)})
    got = s.shift(exps)
    assert got.order == order
    # every term moves with the order, so none falls off or is invented
    me = rq.scaled(exps)
    assert got.terms == {tuple(a + b for a, b in zip(e, me)): c
                         for e, c in s.terms.items()}


def test_shift_by_a_variable_outside_the_roster_names_both():
    with pytest.raises(ValueError, match=r"'z' is not in the roster \('t',\)"):
        uni({1: 1}).shift({"z": 1})


def test_substitute_negative_monomial_shift():
    # Regression: a negative-weight monomial image must not erase
    # contributions computed at high intermediate weight. With
    # B = sum_k x^k for x = y1^{-1} y2 and images y1 = q, y2 = q * f,
    # the result must reproduce sum f^k exactly through the full order.
    ry = make_roster(["y1", "y2"])
    order = 8
    B = PuiseuxSeries(ry, order, {(-k, k): F(1) for k in range(1, order + 1)})
    tgt = make_roster(["q", "u"], [1, 1], [False, True])
    # images are carried one weight beyond the target order so that the
    # q^{-1} shift still reaches full accuracy
    q = PuiseuxSeries.monomial(tgt, order + 1, {"q": 1})
    f = PuiseuxSeries(tgt, order + 1, {(0, 1): F(1), (0, 2): F(1, 2)})
    images = {"y1": q, "y2": q * f}
    got = substitute(B, images, order)
    expect = PuiseuxSeries.zero(tgt, order)
    p = PuiseuxSeries.constant(tgt, order, 1)
    for _ in range(order):
        p = p * f.truncate(order)
        expect = expect + p
    assert got == expect


def test_substitute_fractional_shift_top_order():
    # same regression with half-integer weights, mirroring the inverse
    # mirror map shape q^{1/2} * series
    ry = make_roster(["y1", "y2"], [2, 1])
    order = 9
    B = PuiseuxSeries(ry, order, {(-k, k): F(1, k) for k in range(1, 10)})
    tgt = make_roster(["q", "u"], [2, 1], [False, True])
    q = PuiseuxSeries.monomial(tgt, order, {"q": 1})
    Y2 = PuiseuxSeries(tgt, order, {(1, 1): F(1), (1, 3): F(-1, 24)})
    got = substitute(B, {"y1": q, "y2": Y2}, order)
    # x = y1^{-1/2} y2 evaluates to u - u^3/24 with no q left over;
    # the images determine the result up to weight 8.5
    assert all(e[0] == 0 for e, _ in got.terms.items())
    assert got.order == F(17, 2)
    assert got.coefficient({"u": 8}) == F(11, 128)  # top weight retained


def test_multivar_invert_simple():
    ry = make_roster(["y1"])
    # log q = log y + y  ->  y = q * exp(-A(y)) fixed point
    A = PuiseuxSeries(ry, 8, {(1,): F(1)})
    Y = multivar_invert([A], [], ["q1"], [], [1], 8)[0]
    # verify q = Y * exp(A(Y))
    res = substitute(A, {"y1": Y}, 8)
    prod = Y * series_exp(res)
    q = PuiseuxSeries.monomial(prod.roster, prod.order, {"q1": 1})
    assert prod == q.truncate(prod.order)


def _kahler_round_trip(As, Y, names, order):
    """Y_a exp(A_a(Y)) - q_a for every a, substituted at `order`."""
    images = dict(zip(names, Y))
    out = []
    for a, A in enumerate(As):
        prod = Y[a] * series_exp(substitute(A, images, order))
        out.append(prod - PuiseuxSeries.monomial(prod.roster, prod.order,
                                                 {f"q{a + 1}": 1}))
    return out


@pytest.mark.parametrize("denoms, exps, order", [
    # A_1 = y1^{1/5} y2^{-1/7}: a fifth root and a negative q2-shift; the
    # one-order-per-pass fixed point lost order on every pass and raised
    ([5, 7], (1, -1), 3),
    # A_1 = y1^{1/7} y2^{2/7}: the fixed point cycled and raised
    ([7, 7], (1, 2), 2),
], ids=["fifth-root-map", "seventh-root-map"])
def test_multivar_invert_root_maps_round_trip(denoms, exps, order):
    ry = make_roster(["y1", "y2"], denoms)
    As = [PuiseuxSeries(ry, order, {exps: F(1)}), PuiseuxSeries.zero(ry, order)]
    Y = multivar_invert(As, [], ["q1", "q2"], [], denoms, order)
    assert [y.order for y in Y] == [order, order]
    # Y_1 = q1 exp(-U) with U = x + x^2/5 + ..., x = q1^{1/5} q2^{-1/7}
    # (resp. q1^{1/7} q2^{2/7}), the first terms of the exact inverse
    x = tuple(F(e, d) for e, d in zip(exps, denoms))
    assert Y[0].coefficient({"q1": 1 + x[0], "q2": x[1]}) == -1
    assert Y[1].terms == {(0, denoms[1]): 1}
    # the fractional root of Y_1 loses order in the substitution, so the
    # round trip to `order` is made with the inverse to one order more,
    # which agrees with Y to `order`
    Y_hi = multivar_invert(As, [], ["q1", "q2"], [], denoms, order + 1)
    assert [y.truncate(order) for y in Y_hi] == Y
    for d in _kahler_round_trip(As, Y_hi, ["y1", "y2"], order):
        assert d.is_zero() and d.order == order


def test_multivar_invert_negative_power_of_series_image():
    # A_2 holds y1^{-1} y2^2 and Y_1 is not a monomial: series_pow(Y_1, -1)
    # loses order in every substitution, so the working order must rise
    # above the requested one (the fixed point raised ZeroDivisionError)
    ry = make_roster(["y1", "y2"])
    order = 6
    As = [PuiseuxSeries(ry, order, {(1, 0): F(1), (0, 1): F(-2)}),
          PuiseuxSeries(ry, order, {(-1, 2): F(1), (1, 0): F(3)})]
    Y = multivar_invert(As, [], ["q1", "q2"], [], [1, 1], order)
    assert [y.order for y in Y] == [order, order]
    Y_hi = multivar_invert(As, [], ["q1", "q2"], [], [1, 1], order + 2)
    assert [y.truncate(order) for y in Y_hi] == Y
    for d in _kahler_round_trip(As, Y_hi, ["y1", "y2"], order):
        assert d.is_zero() and d.order == order


def test_multivar_invert_raises_on_weightless_correction():
    # A_1 = y2/y1 is q2/q1 at the starting point, of weight 0: U_1 would
    # need a constant term, and no Newton step can remove it
    ry = make_roster(["y1", "y2"])
    As = [PuiseuxSeries(ry, 4, {(-1, 1): F(1)}), PuiseuxSeries.zero(ry, 4)]
    with pytest.raises(InversionNotConverged, match="weight 0 <= 0"):
        multivar_invert(As, [], ["q1", "q2"], [], [1, 1], 4)


def test_power_ladder_matches_series_pow():
    # every rung, built as a product of the rung below, has the terms and
    # the order of series_pow, on both sides of zero and off-step requests
    rq = make_roster(["q", "u"], [2, 1], [False, True])
    Y = PuiseuxSeries(rq, 6, {(2, 0): F(1), (3, 1): F(-2), (4, 0): F(3, 4),
                              (6, 2): F(1, 5)})
    ladder = PowerLadder({"y": Y})
    for p in [F(1), F(3), F(-2), F(7, 2), F(1, 2), F(-5, 2), F(6)]:
        step = F(1) if p.denominator == 1 else F(1, 2)
        got = ladder.power("y", p, step)
        want = series_pow(Y, p)
        assert got.order == want.order and got.terms == want.terms


def test_shared_ladder_substitution_is_unchanged():
    ry = make_roster(["y1", "y2"], [2, 1])
    rq = make_roster(["q", "u"], [2, 1], [False, True])
    images = {"y1": PuiseuxSeries(rq, 7, {(2, 0): F(1), (4, 1): F(-1, 3)}),
              "y2": PuiseuxSeries(rq, 7, {(1, 1): F(1), (3, 3): F(1, 6)})}
    sources = [PuiseuxSeries(ry, 7, {(-1, 1): F(1), (-3, 3): F(1, 24)}),
               PuiseuxSeries(ry, 7, {(2, 0): F(2), (4, 2): F(-1)}),
               PuiseuxSeries(ry, 7, {(1, 3): F(5)})]
    ladder = PowerLadder(images)
    for s in sources:
        assert substitute(s, ladder, 6) == substitute(s, images, 6)


def test_eval_complex_and_branch():
    rq = make_roster(["q"], [2])
    s = PuiseuxSeries(rq, 4, {(1,): F(1)})  # q^{1/2}
    assert abs(eval_complex(s, {"q": 0.25}) - 0.5) < 1e-14
    with pytest.raises(BranchCutViolation):
        eval_complex(s, {"q": -1.0})


def test_json_roundtrip():
    rq = make_roster(["q", "tau"], [2, 1], [False, True])
    s = PuiseuxSeries(rq, 5, {(1, 2): F(-3, 4), (3, 0): F(5)})
    data = series_to_json(s)
    assert data["terms"][0]["coef"] in ("-3/4", "5")
    back = series_from_json(data)
    assert back == s
    assert back.order == s.order


@pytest.mark.parametrize("exp", [["1"], ["1", "1", "7"]])
def test_json_rejects_exponent_lists_of_the_wrong_length(exp):
    data = {"vars": ["a", "b"], "order": "5", "terms": [{"exp": exp, "coef": "1"}]}
    with pytest.raises(ValueError, match="do not match variables"):
        series_from_json(data)


# -- integer-weight truncation against a Fraction reference ---------------
#
# The reference computes weights as sums of Fractions e_i/d_i and shares
# no weight helper with the kernel.


def ref_weight(e, denoms):
    return sum((F(x, d) for x, d in zip(e, denoms)), F(0))


def ref_truncate(terms, denoms, order):
    return {e: F(c) for e, c in terms.items()
            if c and ref_weight(e, denoms) <= order}


def ref_mul(t1, t2, denoms, order):
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if ref_weight(e, denoms) <= order:
                out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


denom_lists = st.integers(2, 3).flatmap(
    lambda n: st.lists(st.sampled_from([1, 2, 3, 5, 7]), min_size=n, max_size=n))

# orders on and off the weight lattice of the roster, including
# 27/2 and 13/4, whose denominators divide no lcm drawn from {1,2,3,5,7}
orders = (st.sampled_from([F(27, 2), F(13, 4), F(0), F(-1, 2)])
          | st.fractions(min_value=-3, max_value=8, max_denominator=12))


@st.composite
def series_data(draw, n):
    exps = st.tuples(*[st.integers(-6, 14)] * n)
    return draw(st.dictionaries(exps, coef, max_size=8))


@st.composite
def roster_and_terms(draw, count=1):
    denoms = draw(denom_lists)
    names = [f"y{i}" for i in range(len(denoms))]
    roster = make_roster(names, denoms)
    return (roster, *[(draw(orders), draw(series_data(len(denoms))))
                      for _ in range(count)])


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(0, 6), coef, max_size=4), roster_and_terms())
@example({0: F(1), 2: F(1), 3: F(2)},
         (make_roster(["y0", "y1"], [1, 2]), (F(4), {(-1, 0): F(1), (1, 1): F(-1, 2)})))
def test_compose_matches_power_sum(outer, data):
    # outer exponents with gaps; inner of any valuation, the negative
    # ones lowering the order of each power
    roster, (order, terms) = data
    f = PuiseuxSeries(roster, order, {e: c for e, c in terms.items() if any(e)})
    g = uni(outer, order=6)
    want = PuiseuxSeries.zero(roster, f.order)
    p = PuiseuxSeries.constant(roster, f.order, 1)
    for k in range(max((e for (e,) in g.terms), default=-1) + 1):
        if k:
            p = p * f
        want = want + p * g.coefficient({"t": k})
    got = series_compose(g, f)
    assert got.terms == want.terms and got.order == want.order


@settings(max_examples=150, deadline=None)
@given(roster_and_terms())
def test_truncation_matches_reference(data):
    roster, (order, terms) = data
    s = PuiseuxSeries(roster, order, terms)
    assert s.terms == ref_truncate(terms, roster.denoms, order)
    assert s.order == order and type(s.order) is F


@settings(max_examples=150, deadline=None)
@given(roster_and_terms())
def test_valuation_matches_reference(data):
    roster, (order, terms) = data
    s = PuiseuxSeries(roster, order, terms)
    v = s.valuation()
    if s.is_zero():
        assert v is None
    else:
        assert type(v) is F
        assert v == min(ref_weight(e, roster.denoms) for e in s.terms)


@settings(max_examples=150, deadline=None)
@given(roster_and_terms(count=2))
def test_product_matches_reference(data):
    roster, (o1, t1), (o2, t2) = data
    a, b = PuiseuxSeries(roster, o1, t1), PuiseuxSeries(roster, o2, t2)
    p = a * b
    # each factor's missing terms reach the product at its order plus the
    # valuation of the other factor, which lowers the order when negative
    order = min(o1, o2)
    for o, other in ((o1, b), (o2, a)):
        if other.terms:
            order = min(order, o + min(ref_weight(e, roster.denoms)
                                       for e in other.terms))
    assert p.order == order
    assert p.terms == ref_mul(a.terms, b.terms, roster.denoms, order)


def test_product_order_with_negative_valuation():
    # (y^-1 + 1 + O(y^5)) (1 + y + ... + y^5 + O(y^5)): the unknown y^6
    # term of the second factor meets y^-1 at y^5, so the product is
    # known to y^4 only; its true y^5 coefficient is 2, not 1
    a = uni({-1: 1, 0: 1}, order=5)
    b = uni({k: 1 for k in range(6)}, order=5)
    p = a * b
    assert p.order == 4
    assert p.coefficient({"t": 5}) == 0
    assert all(p.coefficient({"t": k}) == 2 for k in range(5))
    # agrees with the product of a longer second factor
    longer = a * uni({k: 1 for k in range(11)}, order=10)
    assert longer.truncate(4) == p
    assert (b * a).order == 4


@settings(max_examples=100, deadline=None)
@given(roster_and_terms())
def test_sorted_terms_order_by_total_exponent(data):
    roster, (order, terms) = data
    got = PuiseuxSeries(roster, order, terms).sorted_terms()
    assert all(type(x) is F for e, _ in got for x in e)
    keys = [(sum(e), e) for e, _ in got]
    assert keys == sorted(keys)


def test_truncation_order_off_the_weight_lattice():
    # roster weights are multiples of 1/3; order 27/2 keeps weight 40/3
    # and drops 41/3
    r = make_roster(["a", "b"], [3, 1])
    s = PuiseuxSeries(r, F(27, 2), {(40, 0): F(1), (41, 0): F(1), (1, 13): F(2)})
    assert s.terms == {(40, 0): F(1), (1, 13): F(2)}
    # lcm 4: order 13/4 keeps weight exactly 13/4
    r = make_roster(["a", "b"], [4, 2])
    s = PuiseuxSeries(r, F(13, 4), {(13, 0): F(1), (1, 6): F(1), (3, 6): F(1)})
    assert s.terms == {(13, 0): F(1), (1, 6): F(1)}


@settings(max_examples=60, deadline=None)
@given(roster_and_terms())
def test_roster_survives_json(data):
    roster, (order, terms) = data
    s = PuiseuxSeries(roster, order, terms)
    back = series_from_json(series_to_json(s))
    assert back.roster == roster
    assert hash(back.roster) == hash(roster)
    assert back == s


@settings(max_examples=60, deadline=None)
@given(denom_lists, st.data())
def test_rosters_differing_in_denominators_do_not_mix(denoms, data):
    i = data.draw(st.integers(0, len(denoms) - 1))
    other = data.draw(st.sampled_from([d for d in [1, 2, 3, 5, 7] if d != denoms[i]]))
    names = [f"y{k}" for k in range(len(denoms))]
    r1 = make_roster(names, denoms)
    r2 = make_roster(names, denoms[:i] + [other] + denoms[i + 1:])
    assert r1 != r2
    one = (0,) * len(denoms)
    a = PuiseuxSeries(r1, 4, {one: F(1)})
    b = PuiseuxSeries(r2, 4, {one: F(1)})
    with pytest.raises(RosterMismatch):
        a * b
    with pytest.raises(RosterMismatch):
        a + b
