"""Extended fan data: kernel bases, pushforwards, effective classes."""

import itertools
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from orbimirror.exact import integer_solve, snf_kernel_basis, solve_unique
from orbimirror.extended import (BasisShapeInfeasibleError,
                                 EnumerationUnboundedError,
                                 ExtendedFanData, LatticeNotGeneratedError,
                                 _chart_roster, _nef_base_basis,
                                 build_extended, keff_enumerate)
from orbimirror.families import (f2_fan, kp_bundle_fan, p1_orbifold, p2_fan,
                                 wpn_fan)
from orbimirror.fan import InvalidFanError, StackyFan, fan_from_json
from orbimirror.mirror import i_function
from strategies import complete_fan_rays, hirzebruch_fan, load_fangen


def _copy(ext: ExtendedFanData) -> ExtendedFanData:
    """A new ExtendedFanData with the fields of ext and none of its caches."""
    return ExtendedFanData(ext.fan, ext.extra, ext.basis, ext.dtilde)


def test_p112_extended_shape():
    ext = build_extended(wpn_fan(2))
    assert (ext.m, ext.m_prime, ext.r, ext.r_prime) == (3, 4, 1, 2)
    assert len(ext.extra) == 1 and ext.extra[0].nu == (0, 1)
    # nef basis: the resolution curve class and the exceptional class
    assert ext.basis == ((1, 1, 2, 0), (0, 0, 1, 1))


def test_f2_extended_shape():
    ext = build_extended(f2_fan())
    assert (ext.m, ext.m_prime, ext.r, ext.r_prime) == (4, 4, 2, 2)
    assert ext.extra == ()
    assert set(ext.basis) == {(1, 1, 0, -2), (0, 0, 1, 1)}


@pytest.mark.parametrize("n", [5, 6])
def test_kp_bundle_nef_basis_beyond_small_n(n):
    # the fibre class (1,...,1,0,-n) and the exceptional class (0,...,0,1,1)
    ext = build_extended(kp_bundle_fan(n))
    assert ext.basis == (tuple([1] * n + [0, -n]), tuple([0] * n + [1, 1]))


def _det(rows) -> F:
    if len(rows) == 1:
        return F(rows[0][0])
    (a, b), (c, d) = rows
    return F(a * d - b * c)


def _coords(vectors, w):
    """Cramer's rule on the first nonsingular r x r minor, checked on
    all of w; None when w is outside the span of the r <= 2 vectors."""
    r = len(vectors)
    for cols in itertools.combinations(range(len(w)), r):
        minor = [[vectors[a][j] for j in cols] for a in range(r)]
        d = _det(minor)
        if d:
            x = []
            for a in range(r):
                swapped = [list(row) for row in minor]
                swapped[a] = [w[j] for j in cols]
                x.append(_det(swapped) / d)
            if all(sum(x[a] * vectors[a][j] for a in range(r)) == w[j]
                   for j in range(len(w))):
                return x
            return None
    raise ValueError("dependent vectors")


def _in_cone(c, gens) -> bool:
    """c is a nonnegative combination of one gen or, in rank 2, of two
    independent gens (Caratheodory)."""
    subsets = [[g] for g in gens]
    if len(c) == 2:
        subsets += [p for p in itertools.combinations(gens, 2) if _det(p)]
    return any((x := _coords(sub, c)) is not None and min(x) >= 0
               for sub in subsets)


def _window_basis(kernel, walls):
    """The nef basis of the [-4, 4]^r kernel-coordinate window search: r
    primitive points of the wall cone that form a unimodular basis on
    which every wall is nonnegative, least by (c1, lex)."""
    r = len(kernel)
    wc = [_coords(kernel, w) for w in walls]
    pts = [c for c in itertools.product(range(-4, 5), repeat=r)
           if math.gcd(*c) == 1 and _in_cone(c, wc)]
    best = None
    for basis in itertools.combinations(pts, r):
        if abs(_det(basis)) != 1 or any(min(_coords(basis, w)) < 0 for w in wc):
            continue
        vecs = sorted((tuple(sum(c[a] * kernel[a][j] for a in range(r))
                             for j in range(len(kernel[0]))) for c in basis),
                      key=lambda v: (sum(v), v))
        if best is None or vecs < best:
            best = vecs
    return best


@settings(max_examples=100, deadline=None)
@given(complete_fan_rays(max_rays=4))
def test_nef_basis_is_the_extremal_wall_classes(rays):
    k = len(rays)
    fan = StackyFan.make(2, rays, [(i, (i + 1) % k) for i in range(k)])
    kernel = snf_kernel_basis([[v[i] for v in rays] for i in range(2)])
    walls = [w for _, _, w in fan.report.walls]
    window = _window_basis(kernel, walls)
    try:
        basis = _nef_base_basis(kernel, walls)
    except BasisShapeInfeasibleError:
        assert window is None
        return
    assert window is None or basis == window
    assert set(basis) <= set(walls)
    coords = [_coords(kernel, v) for v in basis]
    assert abs(_det(coords)) == 1
    assert all(min(_coords(basis, w)) >= 0 for w in walls)


def test_p2_extended_shape():
    ext = build_extended(p2_fan())
    assert (ext.r, ext.r_prime) == (1, 1)
    assert ext.basis == ((1, 1, 1),)


def test_extra_expansion_over_base_rays():
    ext = build_extended(wpn_fan(2))
    # nu = (0,1) = (1/2)(1,0) + (1/2)(-1,2) over the rays of its cone
    (el,) = ext.extra
    rays = [ext.fan.stacky_vectors[j] for j in el.cone]
    vec = tuple(sum(F(c) * F(v[i]) for c, v in zip(el.t, rays))
                for i in range(2))
    assert vec == (F(0), F(1))


def test_dtilde_pushforward():
    ext = build_extended(wpn_fan(2))
    # pushing the exceptional class forward kills it: d~_2 = 0 in the
    # coarse kernel, while d~_1 maps to the generator with weight 1/2
    assert len(ext.dtilde) == ext.r_prime - ext.r
    (d2,) = ext.dtilde
    assert d2 == (F(1, 2),)


def _coordinates(vectors, w):
    """The unique c with w = sum c_k vectors[k], for independent vectors."""
    return solve_unique([[v[j] for v in vectors] for j in range(len(w))], w)


def _assert_extended_form(ext):
    """The form that `build_extended` documents, recomputed with
    `integer_solve` and `_coordinates`: d_1..d_r vanish on the extras; the
    vector of the k-th extra is e_{m+k} - c_k plus an integer combination
    of d_1..d_r; its push-forward has coordinates dtilde_k in [0, 1)^r."""
    m, r = ext.m, ext.r
    nef = [d[:m] for d in ext.basis[:r]]
    assert all(not any(d[m:]) for d in ext.basis[:r])
    assert len(ext.dtilde) == len(ext.extra) == ext.r_prime - r
    rays = ext.fan.stacky_vectors
    for k, (el, d, dt) in enumerate(zip(ext.extra, ext.basis[r:], ext.dtilde)):
        assert d[m:] == tuple(int(i == k) for i in range(len(ext.extra)))
        c = integer_solve([[v[i] for v in rays] for i in range(ext.dim)], el.nu)
        z = _coordinates(nef, [x + y for x, y in zip(d[:m], c)])
        assert all(x.denominator == 1 for x in z)
        push = list(d[:m])
        for j, t in zip(el.cone, el.t):
            push[j] += t
        assert tuple(_coordinates(nef, push)) == dt
        assert all(0 <= x < 1 for x in dt)


def test_extended_classes_need_no_search_window():
    # r = 1 and 40 extras; for many of them the base part of the class
    # with dtilde in [0, 1) lies more than 6 nef-basis steps from -c_k
    fan = StackyFan.make(2, ((2, -6), (3, 9), (-3, 2)), ((0, 1), (1, 2), (2, 0)))
    ext = build_extended(fan)
    assert (ext.r, len(ext.extra)) == (1, 40)
    _assert_extended_form(ext)
    assert ext.dtilde[:3] == ((F(3, 14),), (F(19, 33),), (F(31, 33),))
    assert ext.basis[ext.r][:3] == (7, 3, 7)


@settings(max_examples=60, deadline=None)
@given(complete_fan_rays(max_rays=5), st.lists(st.integers(1, 3), min_size=5,
                                               max_size=5))
def test_every_extended_class_has_the_documented_form(rays, labels):
    vecs = [(a * x, a * y) for a, (x, y) in zip(labels, rays)]
    k = len(rays)
    fan = StackyFan.make(2, vecs, [(i, (i + 1) % k) for i in range(k)])
    try:
        ext = build_extended(fan)
    except (BasisShapeInfeasibleError, LatticeNotGeneratedError):
        return
    _assert_extended_form(ext)


def test_lattice_not_generated():
    # terminal quotient fan: all rays lie in the index-two sublattice of
    # even coordinate sum and every Box element has age 3/2, so nothing
    # with age <= 1 is available to generate the missing lattice vector
    rays = ((1, 1, 0), (-1, -1, 0), (1, 0, 1), (-1, 0, -1),
            (0, 1, 1), (0, -1, -1))
    cones = ((0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
             (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5))
    fan = StackyFan.make(3, rays, cones)
    with pytest.raises(LatticeNotGeneratedError):
        build_extended(fan)


def _rational(ext, el):
    """delta, the pairings and the weight sum(delta) of a class as
    Fractions: the enumeration keeps them as integer numerators over
    ext.den."""
    L = ext.den
    return (tuple(F(x, L) for x in el.delta),
            tuple(F(p, L) for p in el.pairings), F(sum(el.delta), L))


def _pairing(ext, j, delta) -> F:
    """<D_j, d> for d = sum delta_a d_a, in Fractions."""
    return sum((F(da) * ext.basis[a][j] for a, da in enumerate(delta)), F(0))


def test_keff_p2():
    ext = build_extended(p2_fan())
    els = keff_enumerate(ext, 3)
    deltas = sorted(_rational(ext, el)[0] for el in els)
    assert deltas == [(F(0),), (F(1),), (F(2),), (F(3),)]
    for el in els:
        delta, pairings, _ = _rational(ext, el)
        assert pairings == (delta[0],) * 3
        assert el.zweight == 3 * delta[0]
        assert el.nu == (0, 0)


def test_keff_p112_twisted_sectors():
    ext = build_extended(wpn_fan(2))
    els = keff_enumerate(ext, 2)
    by_delta = {_rational(ext, el)[0]: el for el in els}
    # the half-integer directions carry the twisted sector
    half = by_delta[(F(1, 2), F(0))]
    assert half.nu == (0, 1)
    assert _rational(ext, half)[2] == F(1, 2)
    assert by_delta[(F(-1, 2), F(1))].nu == (0, 1)
    # integer points are untwisted
    assert by_delta[(F(0), F(1))].nu == (0, 0)
    assert by_delta[(F(1), F(0))].nu == (0, 0)
    # weights never exceed the bound and delta determines the pairings
    for el in els:
        delta, pairings, weight = _rational(ext, el)
        assert weight <= 2
        assert pairings == tuple(_pairing(ext, j, delta)
                                 for j in range(ext.m_prime))


def test_keff_football_fractional():
    ext = build_extended(p1_orbifold(3, 5))
    els = keff_enumerate(ext, 1)
    weights = {_rational(ext, el)[2] for el in els}
    # both orbifold points contribute fractional directions
    assert any(w.denominator == 3 for w in weights)
    assert any(w.denominator == 5 for w in weights)


def test_keff_bound_monotone():
    ext = build_extended(f2_fan())
    small = {el.delta for el in keff_enumerate(ext, 2)}
    large = {el.delta for el in keff_enumerate(ext, 4)}
    assert small < large


def test_keff_sector_outside_box_raises():
    # a class whose twisted sector is missing from the Box is an input
    # fault, reported as InvalidFanError
    ext = build_extended(wpn_fan(2))
    ext.fan.__dict__["box"] = ()
    with pytest.raises(InvalidFanError, match="is not a Box element"):
        keff_enumerate(ext, 4)


FANS = Path(__file__).resolve().parent.parent / "fans"


def _bundled(name: str) -> StackyFan:
    return fan_from_json(json.loads((FANS / f"{name}.json").read_text()))


# (label, fan, two weight bounds). The footballs get lower bounds since
# their full K_eff grows fastest; at the bound 1/4 their units of larger
# weight, which carry other denominators, are left out.
_PRUNE_CASES = (
    [(f"{name}.json", lambda name=name: _bundled(name), (2, 4))
     for name in ("p1", "p2", "p112", "p113", "p114", "f2", "kp3")]
    + [("p1_3_5.json", lambda: _bundled("p1_3_5"), (F(1, 4), 2))]
    + [(f"wpn{n}", lambda n=n: wpn_fan(n), (2, 4)) for n in range(2, 7)]
    + [(f"kp{n}", lambda n=n: kp_bundle_fan(n), (2, 4)) for n in range(2, 5)]
    # P^1_{a,b} builds for coprime a, b
    + [(f"p1_{a}_{b}", lambda a=a, b=b: p1_orbifold(a, b), (F(1, 4), 2))
       for a in range(1, 6) for b in range(a, 6) if math.gcd(a, b) == 1]
    + [(f"F{k}", lambda k=k: hirzebruch_fan(k), (2, 4)) for k in (3, 4)]
)


@pytest.mark.parametrize("make,bounds", [c[1:] for c in _PRUNE_CASES],
                         ids=[c[0] for c in _PRUNE_CASES])
def test_keff_prune_is_the_full_set_cut_at_c_2(make, bounds):
    ext = build_extended(make())
    for bound in bounds:
        full = keff_enumerate(ext, bound)
        assert keff_enumerate(ext, bound, 2) == \
            [el for el in full if sum(_rational(ext, el)[1]) <= 2]
        dens = [1] * ext.r_prime
        for el in full:
            dens = [math.lcm(d, x.denominator)
                    for d, x in zip(dens, _rational(ext, el)[0])]
        assert _chart_roster(ext, F(bound)).denoms == tuple(dens)


def _least_unit_weight(ext, units) -> F:
    return F(min(sum(u.delta) for u in units), ext.den)


def _assert_i_function_pruning_is_exact(ext, bound):
    # -D_delta = sum_j ceil <D_j, delta> >= c(delta), so every class with
    # D_delta >= -1, all that the I-function keeps, has c(delta) <= 1 and
    # survives the enumeration cut at c = 1
    L = ext.den
    full = keff_enumerate(ext, bound)
    assert all(sum(el.pairings) <= L for el in full if el.zweight <= 1)
    assert keff_enumerate(ext, bound, 1) == [el for el in full
                                             if sum(el.pairings) <= L]
    assert min(z for _, z, _ in i_function(ext, bound).coeffs) >= -1


# the football's full K_eff grows fastest, so it gets the lower bound
@pytest.mark.parametrize("name,bound", [
    ("f2", 4), ("kp3", 4), ("p1", 4), ("p112", 4), ("p113", 4), ("p114", 4),
    ("p1_3_5", 2), ("p2", 4)])
def test_i_function_pruning_is_exact_on_bundled_fans(name, bound):
    _assert_i_function_pruning_is_exact(build_extended(_bundled(name)), bound)


# about one fan in four builds; the others are rejected by assume
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(complete_fan_rays(max_rays=4))
def test_i_function_pruning_is_exact_on_random_fans(rays):
    k = len(rays)
    fan = StackyFan.make(2, rays, [(i, (i + 1) % k) for i in range(k)])
    try:
        ext = build_extended(fan)
        units = [u for us in ext.cone_units for u in us]
    except (BasisShapeInfeasibleError, EnumerationUnboundedError,
            LatticeNotGeneratedError):
        assume(False)
    _assert_i_function_pruning_is_exact(ext, _least_unit_weight(ext, units) * 2)


def _assert_keff_and_units(ext, bound):
    """Every field the enumeration computes in integers, recomputed in
    Fractions from the class's delta, and the units of every cone."""
    vectors = ext.all_vectors()
    n = ext.dim

    def combo(coefs):
        return tuple(sum((c * v[i] for c, v in zip(coefs, vectors)), F(0))
                     for i in range(n))

    _assert_extended_form(ext)
    for el in keff_enumerate(ext, bound):
        delta, el_pairings, weight = _rational(ext, el)
        pairings = tuple(_pairing(ext, j, delta) for j in range(ext.m_prime))
        assert el_pairings == pairings
        assert weight == sum(delta)
        assert el.zweight == sum(math.ceil(p) for p in pairings)
        assert el.nu == combo([-p - math.floor(-p) for p in pairings])
    for sigma, units in zip(ext.fan.max_cones, ext.cone_units):
        free = [j for j in range(ext.m_prime) if j not in sigma]
        assert len(units) == len(free)
        for j, u in zip(free, units):
            delta = tuple(F(x, ext.den) for x in u.delta)
            pairings = tuple(_pairing(ext, k, delta) for k in range(ext.m_prime))
            assert [pairings[k] for k in free] == [int(k == j) for k in free]
            assert combo(pairings) == (0,) * n
            assert F(u.c, ext.den) == sum(pairings)


@pytest.mark.parametrize("make,bounds", [c[1:] for c in _PRUNE_CASES],
                         ids=[c[0] for c in _PRUNE_CASES])
def test_keff_and_unit_invariants(make, bounds):
    _assert_keff_and_units(build_extended(make()), max(bounds))


# about one fan in four builds; the others are rejected by assume
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(complete_fan_rays(max_rays=4))
def test_keff_and_unit_invariants_on_random_fans(rays):
    k = len(rays)
    fan = StackyFan.make(2, rays, [(i, (i + 1) % k) for i in range(k)])
    try:
        ext = build_extended(fan)
        units = [u for us in ext.cone_units for u in us]
    except (BasisShapeInfeasibleError, EnumerationUnboundedError,
            LatticeNotGeneratedError):
        assume(False)
    # K_eff grows like (bound / least unit weight)^r', so the bound is
    # twice the least unit weight, which keeps the enumeration small
    _assert_keff_and_units(ext, _least_unit_weight(ext, units) * 2)


def _inverse(rows) -> list[list[F]]:
    """The inverse of a square integer matrix by Gauss-Jordan elimination
    in Fractions, which shares no code with the Smith form."""
    n = len(rows)
    a = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def _assert_units_are_inverse_rows(ext):
    """Each unit of a max cone sigma is the row of B^-1 of its free index,
    with B = basis[a][k] over the free indices k, and its c the sum of
    that row's pairings; den is the lcm of every entry's denominator."""
    L = ext.den
    dens = []
    for sigma, units in zip(ext.fan.max_cones, ext.cone_units):
        free = [j for j in range(ext.m_prime) if j not in sigma]
        inv = _inverse([[d[k] for k in free] for d in ext.basis])
        assert len(units) == len(inv)
        for u, row in zip(units, inv):
            assert [F(x, L) for x in u.delta] == row
            assert F(u.c, L) == sum(_pairing(ext, j, row)
                                    for j in range(ext.m_prime))
            dens += [x.denominator for x in row]
    assert L == math.lcm(*dens)


@pytest.mark.parametrize("make", [c[1] for c in _PRUNE_CASES],
                         ids=[c[0] for c in _PRUNE_CASES])
def test_cone_units_are_the_rows_of_the_inverse(make):
    _assert_units_are_inverse_rows(build_extended(make()))


# about one fan in four builds; the others are rejected by assume
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(complete_fan_rays(max_rays=4))
def test_cone_units_are_the_rows_of_the_inverse_on_random_fans(rays):
    k = len(rays)
    fan = StackyFan.make(2, rays, [(i, (i + 1) % k) for i in range(k)])
    try:
        ext = build_extended(fan)
        ext.cone_units
    except (BasisShapeInfeasibleError, EnumerationUnboundedError,
            LatticeNotGeneratedError):
        assume(False)
    _assert_units_are_inverse_rows(ext)


def test_cone_units_test_the_weight_before_the_pairings():
    # random_fans(20, 4)[2] of perfbench/fangen.py: r' = 75, and the
    # third cone has a unit of weight 0. Building every unit's 77
    # pairings in Fractions before the weight test took 7.9 s on a
    # 2-vCPU host; the weight test on the integer inverse takes 0.4 s
    fan = StackyFan.make(2, ((-3, -6), (-2, -6), (3, 0), (-6, 9), (-6, 2)),
                         ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    ext = build_extended(fan)
    assert ext.r_prime == 75
    with pytest.raises(EnumerationUnboundedError,
                       match=r"^direction 42 of cone \(2, 3\) has nonpositive weight 0$"):
        ext.cone_units


@pytest.mark.parametrize("k,c,delta", [(3, -1, (2, 2)), (4, -2, (1, 2))])
def test_non_fano_hirzebruch_units_take_the_fallback(k, c, delta):
    # the unit d_1 has c = 2 - k < 0 and the unit d_2 has c = 2. The class
    # below has c = 2, but its d_2 part alone has c = 2 * delta_2 > 2, so
    # a cone that adds d_2 before d_1 must not stop at c > 2
    ext = build_extended(hirzebruch_fan(k))
    assert F(min(u.c for units in ext.cone_units for u in units), ext.den) == c
    units = next(us for us in ext.cone_units if min(u.c for u in us) < 0)
    one_cone = _copy(ext)
    one_cone.__dict__["cone_units"] = (tuple(sorted(units, key=lambda u: -u.c)),)
    pruned = keff_enumerate(one_cone, 6, 2)
    assert pruned == [el for el in keff_enumerate(one_cone, 6)
                      if sum(_rational(one_cone, el)[1]) <= 2]
    assert tuple(map(F, delta)) in {_rational(one_cone, el)[0] for el in pruned}


def test_extended_fan_data_keeps_den_and_cone_units_per_instance():
    # den, cone_units and the Smith data of the basis are caches on the
    # instance; build_extended's saturation check fills basis_factor
    ext = build_extended(wpn_fan(2))
    assert ext.den and ext.cone_units
    fresh = _copy(ext)
    cached = {"den", "cone_units", "cone_inverses", "basis_factor"}
    assert cached <= vars(ext).keys()
    assert not cached & vars(fresh).keys()
    # each instance fills its own caches
    assert fresh.cone_units == ext.cone_units
    assert fresh.cone_units is not ext.cone_units


def _assert_keff_ages(ext: ExtendedFanData, order) -> int:
    """Check that the z-weight of each class of keff_enumerate(ext, order,
    1), less its pairings summed, is the age of its sector in `fan.box`
    (the identity that `keff_enumerate`'s docstring proves, against the
    ages that `compute_box` sums from the Smith form); the number of
    twisted classes."""
    ages = {el.nu: el.age for el in ext.fan.box}
    zero = (0,) * ext.dim
    twisted = 0
    for kel in keff_enumerate(ext, order, 1):
        age = ages[kel.nu] if kel.nu != zero else 0
        assert kel.zweight - F(sum(kel.pairings), ext.den) == age, kel
        twisted += kel.nu != zero
    return twisted


# the bundled fans, the two families in dims 2-7, and the non-Fano F_3
# and F_4, whose cones with a unit of c < 0 are enumerated in full
_AGE_CASES = (
    [(p.stem, lambda p=p: _bundled(p.stem)) for p in sorted(FANS.glob("*.json"))]
    + [(f"wpn_fan({n})", lambda n=n: wpn_fan(n)) for n in range(2, 8)]
    + [(f"kp_bundle_fan({n})", lambda n=n: kp_bundle_fan(n)) for n in range(2, 8)]
    + [(f"F{k}", lambda k=k: hirzebruch_fan(k)) for k in (3, 4)]
)


@pytest.mark.parametrize("make", [c[1] for c in _AGE_CASES],
                         ids=[c[0] for c in _AGE_CASES])
def test_keff_zweight_excess_is_the_sector_age(make):
    ext = build_extended(make())
    assert (_assert_keff_ages(ext, 6) > 0) == bool(ext.fan.box)


def test_keff_zweight_excess_is_the_sector_age_on_random_fans():
    # the 200 fans of ROADMAP item 5; 11 of them build at this writing
    fangen = load_fangen()
    built = twisted = 0
    for seed in range(50):
        for data in fangen.random_fans(seed, 4):
            try:
                ext = build_extended(fan_from_json(data))
                ext.cone_units
            except (BasisShapeInfeasibleError, EnumerationUnboundedError,
                    LatticeNotGeneratedError):
                continue
            built += 1
            twisted += _assert_keff_ages(ext, 3)
    assert built and twisted
