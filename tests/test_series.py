"""Truncated Puiseux series: arithmetic, powers, inversion, substitution."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbimirror import series
from orbimirror.series import (BadConstantTerm, InversionNotConverged,
                               PowerLadder, PuiseuxSeries, Roster,
                               RosterMismatch, ZeroLinearTerm, _rational_root, lagrange_invert,
                               make_roster, multivar_invert, series_compose,
                               series_exp, series_log, series_pow,
                               series_to_json, substitute)

R1 = make_roster(["t"])


def test_roster_equality_ignores_lcm_and_scale():
    r = make_roster(["q", "y"], [2, 3])
    assert (r.lcm, r.scale) == (6, (3, 2))
    other = Roster(("q", "y"), (2, 3), (False, False))
    object.__setattr__(other, "lcm", 1)
    object.__setattr__(other, "scale", (1, 1))
    assert r == other and hash(r) == hash(other)
    assert r != make_roster(["q", "y"], [2, 1])
    assert r != make_roster(["q", "z"], [2, 3])
    assert make_roster(["u"], [1], [True]) != make_roster(["u"])
    # a roster is not the tuple of its fields, and has no __dict__
    assert r != (r.names, r.denoms, r.formal)
    assert not hasattr(r, "__dict__")
    assert repr(r) == ("Roster(names=('q', 'y'), denoms=(2, 3), "
                       "formal=(False, False))")


@pytest.mark.parametrize("names,denoms,formal,message", [
    (("q", "y"), (1,), (False, False), "equal length"),
    (("q", "q"), (1, 1), (False, False), "duplicate variable names"),
    (("u",), (2,), (True,), "formal variables must have denominator 1"),
    (("q",), (0,), (False,), "denominators must be at least 1"),
])
def test_roster_rejects_bad_fields(names, denoms, formal, message):
    with pytest.raises(ValueError, match=message):
        Roster(names, denoms, formal)


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
    # s**e is known to v*e + (order - v), here 3e + 5, a monomial's
    # power too
    assert pab.order == 3 * (a + b) + 5
    prod = pa * pb
    common = min(prod.order, pab.order)
    assert prod.truncate(common).terms == pab.truncate(common).terms


@pytest.mark.parametrize("e, exponent, order", [(F(1, 2), 1, 1), (2, 4, 4)])
def test_pow_of_a_monomial_takes_the_general_order(e, exponent, order):
    # y^2 + O(y^2) has v = N = 2, so its e-th power is known to
    # v*e + (N - v) = 2e: y + O(y^1) and y^4 + O(y^4), not O(y^2)
    p = series_pow(uni({2: 1}, order=2), e)
    assert p.terms == {(F(exponent),): 1} and p.order == order


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
        got = ladder.rung("y", int(p / step) * ladder.align("y", step))
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


def assert_json_describes(data, s):
    """`series_to_json` writes the roster, the order and every term of s,
    sorted as `sorted_terms`, with each exponent and coefficient in
    lowest terms as "p/q", or as "p" when it is integral."""
    r = s.roster
    assert data["vars"] == list(r.names)
    assert data["denoms"] == list(r.denoms)
    assert data["formal"] == list(r.formal)
    written = make_roster(data["vars"], data["denoms"], data["formal"])
    assert written == r
    assert hash(written) == hash(r)
    assert F(data["order"]) == s.order
    assert [(tuple(map(F, t["exp"])), F(t["coef"])) for t in data["terms"]] \
        == s.sorted_terms()
    for text in [data["order"], *(x for t in data["terms"]
                                  for x in [*t["exp"], t["coef"]])]:
        assert str(F(text)) == text


def test_json_roundtrip():
    rq = make_roster(["q", "tau"], [2, 1], [False, True])
    s = PuiseuxSeries(rq, 5, {(1, 2): F(-3, 4), (3, 0): F(5)})
    data = series_to_json(s)
    assert data == {"vars": ["q", "tau"], "denoms": [2, 1],
                    "formal": [False, True], "order": "5",
                    "terms": [{"exp": ["3/2", "0"], "coef": "5"},
                              {"exp": ["1/2", "2"], "coef": "-3/4"}]}
    assert_json_describes(data, s)


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
    # ones lowering the order of each power above the first
    roster, (order, terms) = data
    f = PuiseuxSeries(roster, order, {e: c for e, c in terms.items() if any(e)})
    g = uni(outer, order=6)
    want = PuiseuxSeries.zero(roster, f.order)
    p = PuiseuxSeries.constant(roster, f.order, 1)
    for k in range(max((e for (e,) in g.terms), default=-1) + 1):
        if k:
            p = f if k == 1 else p * f
        want = want + p * g.coefficient({"t": k})
    got = series_compose(g, f)
    assert got.terms == want.terms and got.order == want.order


def test_compose_square_keeps_the_order_of_the_product():
    # t^2 at y^-1 + y + O(y^2) is f*f, known to O(y^1): the first power
    # of f is f itself, not 1*f, which would lower its order to O(y^1)
    # and the square's to O(y^0)
    y = make_roster(["y"])
    f = PuiseuxSeries(y, 2, {(-1,): F(1), (1,): F(1)})
    got = series_compose(uni({2: F(1)}, order=6), f)
    assert got.order == (f * f).order == 1
    assert got.terms == (f * f).terms == {(-2,): 1, (0,): 2}


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
    assert_json_describes(series_to_json(s), s)


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


# -- the integer kernel against dict-of-Fraction references ---------------
#
# Each reference works on plain dicts of Fractions, with the truncation
# rule of ref_truncate, and shares no code with the kernel, which stores
# integer numerators over one denominator. The coefficients carry large
# coprime denominators, so that the common denominator, and the content
# reduction after a cancellation, are exercised.

BIG_DENOMS = [1, 2, 9, 10007, 65537, 999983, 2 ** 31 - 1, 10007 * 65537]
big_coef = st.builds(F, st.integers(-10 ** 12, 10 ** 12).filter(bool),
                     st.sampled_from(BIG_DENOMS))


def assert_canonical(s):
    """den > 0 and coprime to the content; every value a reduced Fraction."""
    assert s.den > 0 and all(s.num.values())
    assert math.gcd(s.den, *s.num.values()) == 1
    if not s.num:
        assert s.den == 1
    for e, c in s.terms.items():
        assert type(c) is F and c == F(s.num[e], s.den)


def ref_add(t1, t2, denoms, order):
    out = dict(t1)
    for e, c in t2.items():
        out[e] = out.get(e, F(0)) + c
    return ref_truncate(out, denoms, order)


def ref_series_of(coefs, u, denoms, order):
    """sum_k coefs[k] u^k with u of positive valuation, to `order`."""
    zero = (0,) * len(denoms)
    out, p = {}, {zero: F(1)}
    for a in coefs:
        if not p:
            break
        for e, c in p.items():
            out[e] = out.get(e, F(0)) + a * c
        p = ref_mul(p, u, denoms, order)
    return ref_truncate(out, denoms, order)


def ref_coefs(kind, n, e=None):
    if kind == "exp":
        return [F(1, math.factorial(k)) for k in range(n)]
    if kind == "log":
        return [F(0)] + [F((-1) ** (k + 1), k) for k in range(1, n)]
    out, c = [], F(1)
    for k in range(n):
        out.append(c)
        c = c * (e - k) / (k + 1)
    return out


@st.composite
def big_series(draw, positive=False):
    """(roster, order, terms) with big coprime denominators; with
    `positive`, every term has weight at least 1/2."""
    denoms = draw(denom_lists)
    roster = make_roster([f"y{i}" for i in range(len(denoms))], denoms)
    exps = st.tuples(*[st.integers(-2 if positive else -6, 8)] * len(denoms))
    terms = draw(st.dictionaries(exps, big_coef, max_size=6))
    if positive:
        # a valuation of at least 1/2 keeps the powers below the order few
        terms = {e: c for e, c in terms.items() if ref_weight(e, denoms) >= F(1, 2)}
    order = draw(st.fractions(min_value=0 if positive else -2,
                              max_value=3 if positive else 5, max_denominator=6))
    return roster, order, terms


@settings(max_examples=100, deadline=None)
@given(big_series(), st.data())
def test_add_and_scale_match_fraction_reference(data, draws):
    roster, o1, t1 = data
    o2 = draws.draw(orders)
    t2 = draws.draw(st.dictionaries(st.sampled_from(sorted(t1) or [(0,) * len(roster.denoms)]),
                                    big_coef, max_size=4))
    # some terms of t2 cancel those of t1 exactly
    t2.update({e: -c for e, c in t1.items() if draws.draw(st.booleans())})
    a, b = PuiseuxSeries(roster, o1, t1), PuiseuxSeries(roster, o2, t2)
    for got, want in [(a + b, ref_add(a.terms, b.terms, roster.denoms, min(o1, o2))),
                      (a - b, ref_add(a.terms, {e: -c for e, c in b.terms.items()},
                                      roster.denoms, min(o1, o2)))]:
        assert_canonical(got)
        assert got.order == min(o1, o2) and got.terms == want
    k = draws.draw(big_coef | st.just(F(0)))
    got = a.scale(k)
    assert_canonical(got)
    assert got.order == o1
    assert got.terms == {e: c * k for e, c in a.terms.items() if c * k}


@settings(max_examples=60, deadline=None)
@given(big_series(positive=True))
def test_exp_and_log_match_fraction_reference(data):
    roster, order, terms = data
    u = PuiseuxSeries(roster, order, terms)
    n = 1 + int(order / min((ref_weight(e, roster.denoms) for e in u.terms),
                            default=1))
    ex = series_exp(u)
    assert_canonical(ex)
    assert ex.order == order
    assert ex.terms == ref_series_of(ref_coefs("exp", n + 1), u.terms,
                                     roster.denoms, order)
    lg = series_log(u + 1)
    assert_canonical(lg)
    assert lg.order == order
    assert lg.terms == ref_series_of(ref_coefs("log", n + 1), u.terms,
                                     roster.denoms, order)


@settings(max_examples=60, deadline=None)
@given(big_series(positive=True), st.data())
def test_pow_matches_fraction_reference(data, draws):
    roster, order, terms = data
    denoms = roster.denoms
    # a unique lowest term lc y^le with le even, so that half-integer
    # powers stay on the lattice; lc a square for the half-integer ones
    le = tuple(2 * x for x in draws.draw(st.tuples(*[st.integers(-1, 2)] * len(denoms))))
    e = draws.draw(st.sampled_from([F(2), F(3), F(-1), F(-2), F(1, 2), F(-3, 2)]))
    r = draws.draw(big_coef)
    lc = r * r if e.denominator == 2 else r
    lead_w = ref_weight(le, denoms)
    order = max(order, lead_w)
    s = PuiseuxSeries(roster, order, {le: lc, **{
        x: c for x, c in terms.items() if ref_weight(x, denoms) > lead_w}})
    tail = {x: c for x, c in s.terms.items() if x != le}
    got = series_pow(s, e)
    assert_canonical(got)
    # s**e = lc**e y^(e le) (1 + u)**e, u known to order - w(le)
    u_order = order - lead_w
    u = {tuple(a - b for a, b in zip(x, le)): c / lc for x, c in s.terms.items()
         if x != le}
    n = 1 + int(u_order / min((ref_weight(x, denoms) for x in u), default=1))
    tail_series = ref_series_of(ref_coefs("binomial", n + 1, e), u, denoms, u_order)
    c0 = abs(r) ** int(2 * e) if e.denominator == 2 else lc ** int(e)
    me = tuple(int(x * e) for x in le)
    assert got.order == u_order + e * lead_w
    if not tail:
        # a monomial's tail u = 0 is known only to u_order
        assert got.terms == ref_truncate({me: c0}, denoms, got.order)
        return
    assert got.terms == {tuple(a + b for a, b in zip(x, me)): c0 * c
                         for x, c in tail_series.items()}


@settings(max_examples=60, deadline=None)
@given(big_series(positive=True), st.data())
def test_substitute_matches_fraction_reference(data, draws):
    # s in two integer variables, images of positive valuation with a
    # unique lowest term in the target roster, the result asked for at
    # an order the images reach
    tgt, order, _ = data
    denoms = tgt.denoms
    order += 1
    exps = st.tuples(*[st.integers(0, 4)] * len(denoms))
    images = {}
    for name in ("a", "b"):
        # the lead y_i^{1/d_i} has weight at most 1, so that the products
        # of several images reach below the order
        i = draws.draw(st.integers(0, len(denoms) - 1))
        lead = tuple(int(k == i) for k in range(len(denoms)))
        tail = draws.draw(st.dictionaries(exps, big_coef, max_size=3))
        images[name] = PuiseuxSeries(tgt, order + 1, {lead: draws.draw(big_coef), **{
            x: c for x, c in tail.items()
            if ref_weight(x, denoms) > ref_weight(lead, denoms)}})
    src = make_roster(["a", "b"])
    sterms = draws.draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                        big_coef, max_size=4))
    s = PuiseuxSeries(src, 6, sterms)
    got = substitute(s, images, order)
    assert_canonical(got)
    assert got.order == order
    want = {}
    for (i, j), c in s.terms.items():
        p = {(0,) * len(denoms): c}
        for name, k in (("a", i), ("b", j)):
            for _ in range(k):
                p = ref_mul(p, images[name].terms, denoms, order)
        want = ref_add(want, p, denoms, order)
    assert got.terms == want


@settings(max_examples=60, deadline=None)
@given(big_series(), st.data())
def test_substitute_monomial_images_matches_fraction_reference(data, draws):
    # single-term images c_i y^(d_i v_i) with c_i = r_i^(d_i), substituted
    # for source variables of denominators d_i at rational and negative
    # exponents x/d_i: the power is r_i^x y^(x v_i), exactly
    tgt, order, _ = data
    denoms = tgt.denoms
    src_denoms = draws.draw(st.lists(st.sampled_from([1, 2, 3]), min_size=2,
                                     max_size=2))
    src = make_roster(["a", "b"], src_denoms)
    vecs, roots, images = [], [], {}
    for name, d in zip(src.names, src_denoms):
        v = draws.draw(st.tuples(*[st.integers(-3, 3)] * len(denoms)))
        r = draws.draw(st.sampled_from([F(2), F(3, 5), F(7, 2), F(1, 10007)]))
        if d == 1 and draws.draw(st.booleans()):
            r = -r
        vecs.append(v)
        roots.append(r)
        images[name] = PuiseuxSeries(tgt, 30, {tuple(d * x for x in v): r ** d})
    sterms = draws.draw(st.dictionaries(st.tuples(*[st.integers(-4, 4)] * 2),
                                        big_coef, max_size=5))
    s = PuiseuxSeries(src, 20, sterms)
    got = substitute(s, images, order)
    assert_canonical(got)
    assert got.order == order
    want = {}
    for xs, c in s.terms.items():
        e = tuple(sum(x * v[k] for x, v in zip(xs, vecs)) for k in range(len(denoms)))
        mono = {e: c * roots[0] ** xs[0] * roots[1] ** xs[1]}
        want = ref_add(want, mono, denoms, order)
    assert got.terms == want


def test_shared_ladder_serves_euler_derivatives_and_off_step_powers():
    # one ladder for a series h and its Euler derivatives y_c d/dy_c h at
    # two orders; g asks y1 for a half-integer power off the ladder's
    # integer step, which rebuilds the rungs of y1 on the step 1/2 that
    # the later requests then read. y2 is a monomial image with a
    # coefficient other than 1, raised to rational and negative powers
    ry = make_roster(["y1", "y2"], [2, 2])
    rq = make_roster(["q", "u"], [2, 1], [False, True])
    images = {"y1": PuiseuxSeries(rq, 8, {(4, 0): F(4), (6, 1): F(-1, 3),
                                          (8, 0): F(1, 5)}),
              "y2": PuiseuxSeries(rq, 8, {(2, 0): F(9, 4)})}
    h = PuiseuxSeries(ry, 8, {(2, 1): F(1), (4, -2): F(1, 3), (-2, 3): F(5, 7),
                              (2, 0): F(2)})
    g = PuiseuxSeries(ry, 8, {(3, 1): F(1), (1, 0): F(-2, 9)})
    derivatives = [series._euler(h, c) for c in range(2)]
    ladder = PowerLadder(images)
    for order in (5, 3):
        for x in [h, *derivatives, g, h, *derivatives]:
            assert substitute(x, ladder, order) == substitute(x, images, order)
    assert ladder._steps["y1"] == F(1, 2)


def test_canonical_form_is_one_per_value():
    r = make_roster(["q", "u"], [2, 1], [False, True])
    e1, e2 = (1, 0), (2, 1)
    a = PuiseuxSeries(r, 4, {e1: F(1, 3), e2: F(2, 3)})
    b = PuiseuxSeries(r, 4, {e1: 2, e2: 4}, 6)
    c = PuiseuxSeries(r, 4, {e1: 10 ** 30, e2: 2 * 10 ** 30}, 3 * 10 ** 30)
    d = PuiseuxSeries(r, 4, {e1: F(1, 3 * 65537), e2: F(2, 3 * 65537)}).scale(65537)
    for s in (a, b, c, d):
        assert_canonical(s)
        assert (s.num, s.den) == ({e1: 1, e2: 2}, 3)
        assert s == a and s.terms == {e1: F(1, 3), e2: F(2, 3)}
    # terms that all cancel leave the zero series with denominator 1
    big = PuiseuxSeries(r, 4, {e1: F(7, 10007 * 65537), e2: F(-5, 999983)})
    for zero in (big - big, big + big.scale(-1), big.scale(0), big.truncate(0)):
        assert_canonical(zero)
        assert zero.is_zero() and (zero.num, zero.den) == ({}, 1)
        assert zero == PuiseuxSeries.zero(r, zero.order)
    # dropping the term that held the denominator reduces the rest
    s = PuiseuxSeries(r, 4, {e1: F(1, 2), e2: F(3, 4)})
    assert (s.truncate(1).num, s.truncate(1).den) == ({e1: 1}, 2)
