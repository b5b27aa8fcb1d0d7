"""Stacky fans: validation, Box elements, walls, the X-bar subdivision."""

import hashlib
import json
import math
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbimirror.cli import main
from orbimirror.exact import cone_index
from orbimirror.extended import build_extended
from orbimirror.fan import (IncompleteFanError, InvalidFanError, StackyFan,
                            compute_box, fan_from_json, fan_to_json,
                            is_gorenstein, primitive_collections,
                            star_subdivide_xbar, validate_fan,
                            wall_curve_classes)
from orbimirror.families import (f2_fan, kp_bundle_fan, p1_orbifold, p2_fan,
                                 wpn_fan, wpn_index)
from strategies import complete_fan_rays, load_fangen

FANS = Path(__file__).resolve().parent.parent / "fans"


def test_validate_families():
    for fan in (wpn_fan(2), wpn_fan(3), wpn_fan(4), f2_fan(),
                kp_bundle_fan(3), p2_fan(), p1_orbifold(3, 5)):
        assert validate_fan(fan).valid


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wpn_index_family(n):
    assert wpn_index(wpn_fan(n)) == n


@pytest.mark.parametrize("name", ["f2", "kp3", "p1", "p1_3_5", "p2"])
def test_wpn_index_bundled_non_family(name):
    path = FANS / f"{name}.json"
    assert wpn_index(fan_from_json(json.loads(path.read_text()))) is None


def test_wpn_index_non_family():
    # P^1_{2,1} has one index-2 cone, but n = 2 != dim = 1 and its one
    # twisted sector has age 1/2
    for fan in (kp_bundle_fan(3), p1_orbifold(3, 5), p1_orbifold(2, 1)):
        assert wpn_index(fan) is None


def test_validate_incomplete():
    fan = StackyFan.make(2, ((1, 0), (0, 1)), ((0, 1),))
    rep = validate_fan(fan)
    assert not rep.valid and not rep.complete
    rep = validate_fan(StackyFan.make(2, ((1, 0), (0, 1), (-1, -1)), ()))
    assert not rep.valid and not rep.complete


@pytest.mark.parametrize("vecs,cones,error", [
    (((1,), (2,)), ((0,), (1,)),
     "cones (0,) and (1,) lie on the same side of wall ()"),
    (((1,), (-1,)), ((0,),), "wall () lies in 1 max cones"),
    (((1,), (-1,), (-2,)), ((0,), (1,), (2,)), "wall () lies in 3 max cones"),
    (((1,), (-1,)), (), "fan has no maximal cones"),
])
def test_validate_incomplete_dim_1(vecs, cones, error):
    # in dim 1 the only wall is the empty face, shared by every max cone
    rep = validate_fan(StackyFan.make(1, vecs, cones))
    assert not rep.valid and not rep.complete
    assert error in rep.errors


def test_walls_p1_orbifold():
    # the empty wall of P^1_{a,b}: b (a) + a (-b) = 0, normalized to
    # (1, a/b)
    for a in range(1, 8):
        for b in range(1, 8):
            (w,) = wall_curve_classes(p1_orbifold(a, b))
            assert w.wall == () and w.relation == (1, F(a, b))
            assert w.c1 == 1 + F(a, b)


def test_validate_cone_index_out_of_range():
    # a negative index would otherwise pick a ray from the end
    for cones in (((0, 1), (1, 5), (0, 2)), ((0, 1), (1, -1), (0, 2))):
        fan = StackyFan.make(2, ((1, 0), (0, 1), (-1, -1)), cones)
        assert validate_fan(fan).errors == ("cone index out of range",)


def test_validate_overlapping():
    # two maximal cones overlapping in their interiors
    fan = StackyFan.make(2, ((1, 0), (0, 1), (1, 1), (-1, -1)),
                         ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3)))
    assert not validate_fan(fan).valid


# both cover every direction, so only an overlap test rejects them
FOLD = StackyFan.make(2, ((1, 0), (-1, 2), (1, 2), (-1, 0), (0, -1)),
                      ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
DOUBLE_WINDING = StackyFan.make(2, ((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)),
                                ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))


def test_validate_fold():
    # the turns at rays 1 and 2 go back, so cones (0,1) and (1,2)
    # overlap, and so do (1,2) and (2,3); the errors come in wall order
    rep = validate_fan(FOLD)
    assert not rep.valid and not rep.complete
    assert rep.errors == (
        "cones (0, 1) and (1, 2) lie on the same side of wall (1,)",
        "cones (1, 2) and (2, 3) lie on the same side of wall (2,)")
    assert rep.walls == ()


def test_validate_double_winding():
    # every turn is positive, but the rays go round the origin twice
    rep = validate_fan(DOUBLE_WINDING)
    assert not rep.valid and not rep.complete
    assert any("also lies in" in e for e in rep.errors)
    with pytest.raises(InvalidFanError, match="also lies in"):
        compute_box(DOUBLE_WINDING)


def test_validate_two_disjoint_fans():
    # two complete fans on disjoint rays: every wall is shared correctly
    fan = StackyFan.make(2, ((1, 0), (-1, 1), (-1, -2), (0, 1), (-2, -1), (1, -1)),
                         ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    rep = validate_fan(fan)
    assert not rep.valid and not rep.complete


def _winds_once(rays) -> bool:
    """Angle-only oracle: turns of one sign that sum to +-2 pi."""
    turns = []
    for (x0, y0), (x1, y1) in zip(rays, rays[1:] + rays[:1]):
        cross = x0 * y1 - y0 * x1
        if cross == 0:
            return False
        turns.append(math.atan2(cross, x0 * x1 + y0 * y1))
    if not (all(t > 0 for t in turns) or all(t < 0 for t in turns)):
        return False
    return abs(abs(sum(turns)) - 2 * math.pi) < 1e-9


_ray = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda v: v != (0, 0))


@st.composite
def _cyclic_rays(draw):
    rays = draw(st.lists(_ray, min_size=3, max_size=6, unique=True))
    if draw(st.booleans()):
        # angle order taken with a stride prime to k: winds once or more
        k = len(rays)
        rays.sort(key=lambda v: math.atan2(v[1], v[0]))
        stride = draw(st.sampled_from(
            [s for s in range(1, k) if math.gcd(s, k) == 1]))
        rays = [rays[i * stride % k] for i in range(k)]
    return rays


@settings(max_examples=400, deadline=None)
@given(_cyclic_rays())
def test_validate_cyclic_fans_match_angle_oracle(rays):
    # cones between cyclic neighbours: random orders fold, strides wind
    k = len(rays)
    fan = StackyFan.make(2, rays, [(i, (i + 1) % k) for i in range(k)])
    assert validate_fan(fan).valid == _winds_once(rays)


def _cramer(g1, g2, v) -> tuple[F, F]:
    """(t1, t2) with v = t1*g1 + t2*g2, by Cramer's rule."""
    d = g1[0] * g2[1] - g1[1] * g2[0]
    return (F(v[0] * g2[1] - v[1] * g2[0], d), F(g1[0] * v[1] - g1[1] * v[0], d))


def _parallelepiped_points(g1, g2) -> dict[tuple[int, int], tuple[F, F]]:
    """The lattice points t1*g1 + t2*g2 with 0 <= t1, t2 < 1, each with
    its (t1, t2), by scanning the bounding box with Cramer's rule."""
    xs = range(min(0, g1[0], g2[0], g1[0] + g2[0]),
               max(0, g1[0], g2[0], g1[0] + g2[0]) + 1)
    ys = range(min(0, g1[1], g2[1], g1[1] + g2[1]),
               max(0, g1[1], g2[1], g1[1] + g2[1]) + 1)
    points = {(x, y): _cramer(g1, g2, (x, y)) for x in xs for y in ys}
    return {p: t for p, t in points.items() if all(0 <= ti < 1 for ti in t)}


@settings(max_examples=200, deadline=None)
@given(complete_fan_rays())
def test_box_counts_match_determinants(rays):
    # each maximal cone holds |det| Box elements, the identity included
    k = len(rays)
    fan = StackyFan.make(2, rays, [(i, (i + 1) % k) for i in range(k)])
    assert validate_fan(fan).valid
    box = compute_box(fan)
    for cone in fan.max_cones:
        g1, g2 = (rays[i] for i in cone)
        index = abs(g1[0] * g2[1] - g1[1] * g2[0])
        inside = sum(set(el.cone) <= set(cone) for el in box)
        assert inside + 1 == index == len(_parallelepiped_points(g1, g2))


@st.composite
def _labelled_cyclic_fans(draw):
    """A complete 2D stacky fan with labels in 1..3, the ray at angle
    position j carrying the index cycle[j]."""
    rays = draw(complete_fan_rays())
    k = len(rays)
    stacky = _stacky(rays, draw(st.lists(st.integers(1, 3), min_size=k,
                                         max_size=k)))
    cycle = draw(st.permutations(range(k)))
    vecs = [None] * k
    for j, i in enumerate(cycle):
        vecs[i] = stacky[j]
    return StackyFan.make(2, vecs, [(cycle[j], cycle[(j + 1) % k])
                                    for j in range(k)])


@settings(max_examples=200, deadline=None)
@given(_labelled_cyclic_fans())
def test_box_elements_match_parallelepiped_points(fan):
    # the oracle's (nu, cone, t, age), a point on a shared ray found
    # from both of its cones with the same t
    want = {}
    for cone in fan.max_cones:
        g1, g2 = fan.cone_generators(cone)
        for nu, t in _parallelepiped_points(g1, g2).items():
            if not any(t):
                continue
            el = (nu, tuple(i for i, ti in zip(cone, t) if ti),
                  tuple(ti for ti in t if ti), sum(t))
            assert want.setdefault(nu, el) == el
    assert [tuple(el) for el in compute_box(fan)] == sorted(want.values())


@settings(max_examples=200, deadline=None)
@given(_labelled_cyclic_fans(),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_in_cone_signs_match_cramer_rule(fan, v):
    # in_cone returns integer numerators over a positive denominator,
    # so their signs are those of the Fraction coefficients
    for cone in fan.max_cones:
        t = _cramer(*fan.cone_generators(cone), v)
        got = fan.in_cone(cone, v)
        if min(t) < 0:
            assert got is None
        else:
            assert all(type(x) is int for x in got)
            assert [(x > 0) - (x < 0) for x in got] == [(x > 0) - (x < 0) for x in t]


def _gorenstein_oracle(fan) -> bool:
    return all(el.age.denominator == 1 for el in compute_box(fan))


def _many_fans() -> list[StackyFan]:
    """The bundled fans, the weighted and bundle families in dims 2-7
    and the seeded random 2D fans of perfbench/fangen.py."""
    fangen = load_fangen()
    return ([fan_from_json(json.loads(p.read_text())) for p in sorted(FANS.glob("*.json"))]
            + [wpn_fan(n) for n in range(2, 8)]
            + [kp_bundle_fan(n) for n in range(2, 8)]
            + [fan_from_json(d) for seed in range(60)
               for d in fangen.random_fans(seed, 4)]
            + [fan_from_json(d) for seed in range(20)
               for d in fangen.benchmark_fans(seed, 16)])


def test_gorenstein_matches_the_ages_of_the_box():
    fans = _many_fans()
    gorenstein = 0
    for fan in fans:
        got = is_gorenstein(fan)
        # read off the Smith factors: the Box is not built
        assert "box" not in vars(fan)
        assert got == _gorenstein_oracle(fan)
        gorenstein += got
    # the Gorenstein ones: the bundled fans but P1_{3,5}, and the two
    # families in dims 2-7; the Hypothesis case below covers 2D stacky
    # fans with labels
    assert len(fans) == 580 and gorenstein == 19


@settings(max_examples=200, deadline=None)
@given(_labelled_cyclic_fans())
def test_gorenstein_matches_the_ages_of_the_box_on_labelled_fans(fan):
    assert is_gorenstein(fan) == _gorenstein_oracle(fan)
    assert "box" not in vars(fan)


def test_gorenstein_of_an_invalid_fan_raises():
    with pytest.raises(InvalidFanError):
        is_gorenstein(FOLD)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_check_builds_no_box(fmt, monkeypatch, tmp_path):
    calls = []

    def counting(fan):
        calls.append(fan)
        return compute_box(fan)

    monkeypatch.setattr("orbimirror.fan.compute_box", counting)
    for path in sorted(FANS.glob("*.json")):
        out = tmp_path / f"{path.stem}.{fmt}"
        assert main(["check", str(path), "--format", fmt, "--out", str(out)]) == 0
    assert calls == []
    assert main(["box", str(FANS / "p112.json"), "--format", fmt,
                 "--out", str(tmp_path / "box")]) == 0
    assert len(calls) == 1


def test_fan_validated_once(monkeypatch):
    calls = []

    def counting(fan):
        calls.append(fan)
        return validate_fan(fan)

    monkeypatch.setattr("orbimirror.fan.validate_fan", counting)
    fan = wpn_fan(2)
    build_extended(fan)
    assert is_gorenstein(fan)
    assert len(wall_curve_classes(fan)) == 3
    assert len(compute_box(fan)) == 1
    assert calls == [fan]


def test_stacky_fan_equality_and_hash_read_the_three_fields():
    # the report, the Box and the cone factors are caches on the instance
    fan = wpn_fan(2)
    fresh = StackyFan.make(fan.dim, fan.stacky_vectors, fan.max_cones)
    assert fan.report.valid and fan.box and fan.factor(fan.max_cones[0])
    assert {"report", "box", "_factors"} <= vars(fan).keys()
    assert not {"report", "box", "_factors"} & vars(fresh).keys()
    assert fan == fresh and hash(fan) == hash(fresh)
    assert {fan: 1}[fresh] == 1
    # each instance fills its own caches
    assert fresh.box == fan.box and fresh.box is not fan.box
    assert fresh._factors is not fan._factors
    assert fan != StackyFan(fan.dim + 1, fan.stacky_vectors, fan.max_cones)
    assert fan != StackyFan(fan.dim, fan.stacky_vectors[::-1], fan.max_cones)
    assert fan != StackyFan(fan.dim, fan.stacky_vectors, fan.max_cones[1:])
    # a fan is not the tuple of its fields
    assert fan != (fan.dim, fan.stacky_vectors, fan.max_cones)
    assert repr(fresh) == ("StackyFan(dim=2, stacky_vectors=((1, 0), (-1, 2), "
                           "(0, -1)), max_cones=((0, 1), (0, 2), (1, 2)))")


def test_box_p112():
    fan = wpn_fan(2)
    box = compute_box(fan)
    assert len(box) == 1
    el = box[0]
    assert el.nu == (0, 1) and el.age == 1 and el.t == (F(1, 2), F(1, 2))
    assert is_gorenstein(fan)


def test_box_football():
    fan = p1_orbifold(3, 5)
    box = compute_box(fan)
    assert len(box) == 6
    assert sorted(el.age for el in box) == [F(1, 5), F(1, 3), F(2, 5),
                                            F(3, 5), F(2, 3), F(4, 5)]
    assert not is_gorenstein(fan)


def test_box_smooth_empty():
    assert compute_box(p2_fan()) == ()
    assert compute_box(f2_fan()) == ()


def test_box_size_is_index():
    for fan in (wpn_fan(2), wpn_fan(3), p1_orbifold(3, 5)):
        box = compute_box(fan)
        # Box elements of each maximal cone, counted with the cone they
        # belong to, cover the group of that cone minus the identity
        total = sum(cone_index(fan.cone_generators(c)) - 1
                    for c in fan.max_cones)
        # elements on shared faces are counted once per containing cone
        assert len(box) <= total
        assert len(box) >= max(cone_index(fan.cone_generators(c))
                               for c in fan.max_cones) - 1


def test_walls_p2():
    walls = wall_curve_classes(p2_fan())
    assert len(walls) == 3
    assert all(w.c1 == 3 for w in walls)


def test_walls_f2():
    walls = wall_curve_classes(f2_fan())
    assert sorted(w.c1 for w in walls) == [0, 2, 2, 4]
    # semi-Fano but not Fano
    assert all(w.c1 >= 0 for w in walls)


def test_walls_p112():
    walls = wall_curve_classes(wpn_fan(2))
    # e.g. (1,0) + (-1,2) + 2(0,-1) = 0 sums to 4 for every wall
    assert sorted(w.c1 for w in walls) == [4, 4, 4]


def test_primitive_collections():
    assert primitive_collections(p2_fan()) == [(0, 1, 2)]
    assert sorted(primitive_collections(f2_fan())) == [(0, 1), (2, 3)]


def test_xbar_replaces_opposite_ray():
    fan = wpn_fan(2)
    # the twisted sector nu = (0, 1)
    xbar = star_subdivide_xbar(fan, (0, 1))
    # -nu = (0,-1) is already the third ray
    assert xbar.replaced_ray and xbar.new_ray_index == 2
    assert xbar.fan == fan


def test_xbar_star_subdivides():
    fan = p2_fan()
    xbar = star_subdivide_xbar(fan, fan.stacky_vectors[0])
    assert not xbar.replaced_ray
    assert xbar.infinity_vector == (-1, 0)
    assert len(xbar.fan.stacky_vectors) == 4
    assert validate_fan(xbar.fan).valid


@pytest.mark.parametrize("fan,b0", [
    (p2_fan(), (1, 1)),          # b_0 + b_1, a class that is not basic
    (wpn_fan(2), (0, 2)),        # 2 nu: a lattice point, not a Box element
    (wpn_fan(2), (0, 0)),
    (wpn_fan(2), (0, 1, 0)),     # of the wrong dimension
], ids=["sum-of-two-rays", "twice-nu", "zero", "wrong-dimension"])
def test_xbar_rejects_a_vector_that_names_no_basic_class(fan, b0):
    with pytest.raises(ValueError, match=re.escape(str(b0))):
        star_subdivide_xbar(fan, b0)


def test_xbar_requires_complete():
    fan = StackyFan.make(2, ((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(IncompleteFanError):
        star_subdivide_xbar(fan, (1, 0))


def test_fan_json_roundtrip():
    fan = wpn_fan(3)
    data = fan_to_json(fan)
    assert fan_from_json(data) == fan


def test_fan_json_labels():
    data = {"dim": 1, "stacky_vectors": [[1], [-1]],
            "max_cones": [[0], [1]], "labels": [3, 5]}
    fan = fan_from_json(data)
    assert fan.stacky_vectors == ((3,), (-5,))


# -- an oracle for completeness and walls written with 2x2 cross products


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _cross_complete(vecs) -> bool:
    """Cones between cyclic neighbours cover the plane once: every turn
    v_i -> v_{i+1} has one nonzero sign, so at each wall ray the two
    neighbours lie on opposite sides of its line, and the sectors of the
    turns pass the direction of v_0 exactly once."""
    k = len(vecs)
    turns = [_cross(vecs[i], vecs[(i + 1) % k]) for i in range(k)]
    if not (all(t > 0 for t in turns) or all(t < 0 for t in turns)):
        return False
    if turns[0] < 0:
        vecs = vecs[::-1]
    d = vecs[0]
    # each turn sweeps less than a half plane; count the half-open
    # sectors (a, b] that hold d
    passes = sum((_cross(a, d) > 0 and _cross(d, b) > 0)
                 or (_cross(d, b) == 0 and d[0] * b[0] + d[1] * b[1] > 0)
                 for a, b in zip(vecs, vecs[1:] + vecs[:1]))
    return passes == 1


def _cross_relation(vecs, cycle, j):
    """The wall class at the ray cycle[j] of a fan whose cones join the
    rays cycle[0], cycle[1], ... cyclically, by Cramer's rule:
    x(w, q) p + x(q, p) w + x(p, w) q = 0 for the neighbours p, q of w,
    with x the cross product, scaled so that the lower-indexed
    neighbour has coefficient 1."""
    k = len(cycle)
    i = cycle[j]
    lo, hi = sorted((cycle[j - 1], cycle[(j + 1) % k]))
    p, w, q = vecs[lo], vecs[i], vecs[hi]
    rel = [0] * k
    rel[lo], rel[i], rel[hi] = _cross(w, q), _cross(q, p), _cross(p, w)
    return tuple(F(x, rel[lo]) for x in rel)


def _stacky(rays, labels):
    return [(c * x, c * y) for c, (x, y) in zip(labels, rays)]


@st.composite
def _cyclic_stacky_fans(draw):
    """A complete fan's stacky vectors, in angle order, reversed, taken
    with a stride prime to their number (winds that many times, or
    folds), shuffled (folds), or followed by the rays of a second
    complete fan (winds twice when every turn is positive)."""
    rays = draw(complete_fan_rays())
    how = draw(st.sampled_from(["once", "reversed", "stride", "shuffle",
                                "twice"]))
    if how == "twice":
        rays += [r for r in draw(complete_fan_rays()) if r not in rays]
    k = len(rays)
    vecs = _stacky(rays, draw(st.lists(st.integers(1, 3), min_size=k,
                                       max_size=k)))
    if how == "reversed":
        vecs.reverse()
    elif how == "stride":
        s = draw(st.sampled_from([s for s in range(1, k) if math.gcd(s, k) == 1]))
        vecs = [vecs[i * s % k] for i in range(k)]
    elif how == "shuffle":
        vecs = draw(st.permutations(vecs))
    return list(vecs)


def _cyclic_fan(vecs):
    k = len(vecs)
    return StackyFan.make(2, vecs, [(i, (i + 1) % k) for i in range(k)])


@settings(max_examples=400, deadline=None)
@given(_cyclic_stacky_fans())
@example(list(FOLD.stacky_vectors))
@example(list(DOUBLE_WINDING.stacky_vectors))
@example([(2, 0), (0, 1), (-2, 0), (0, -3)])
@example([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0), (0, 1), (-1, 0), (0, -1)])
def test_complete_matches_cross_product_oracle(vecs):
    assert validate_fan(_cyclic_fan(vecs)).complete == _cross_complete(vecs)


def test_cross_product_oracle_sees_fold_and_double_winding():
    assert not _cross_complete(list(FOLD.stacky_vectors))
    assert not _cross_complete(list(DOUBLE_WINDING.stacky_vectors))
    assert _cross_complete([(1, 0), (0, 1), (-1, -1)])
    assert _cross_complete([(1, 0), (-1, -1), (0, 1)])


@st.composite
def _labelled_cyclic_fans(draw):
    """(fan, vecs, cycle): a complete 2D stacky fan whose ray at angle
    position j has the index cycle[j], so that the lower-indexed
    neighbour of a wall may come before or after it."""
    rays = draw(complete_fan_rays())
    k = len(rays)
    stacky = _stacky(rays, draw(st.lists(st.integers(1, 3), min_size=k,
                                         max_size=k)))
    cycle = draw(st.permutations(range(k)))
    vecs = [None] * k
    for j, i in enumerate(cycle):
        vecs[i] = stacky[j]
    cones = [(cycle[j], cycle[(j + 1) % k]) for j in range(k)]
    if draw(st.booleans()):
        fan = StackyFan.make(2, vecs, cones)
    else:
        # unsorted cones, as the constructor takes them: the cone of the
        # higher-indexed opposite ray may come first at a wall
        fan = StackyFan(2, tuple(vecs), tuple(cones[::-1]))
    return fan, vecs, cycle


@settings(max_examples=200, deadline=None)
@given(_labelled_cyclic_fans())
def test_wall_classes_match_cramer_rule(labelled):
    fan, vecs, cycle = labelled
    walls = {w.wall: w for w in wall_curve_classes(fan)}
    assert sorted(walls) == [(i,) for i in range(len(cycle))]
    for j, i in enumerate(cycle):
        assert walls[(i,)].relation == _cross_relation(vecs, cycle, j)
        assert walls[(i,)].c1 == sum(walls[(i,)].relation)


@settings(max_examples=200, deadline=None)
@given(_labelled_cyclic_fans())
def test_validation_keeps_one_primitive_relation_per_wall(labelled):
    fan, vecs, cycle = labelled
    k = len(cycle)
    walls = fan.report.walls
    assert [face for face, _, _ in walls] == [(i,) for i in range(k)]
    for j, i in enumerate(cycle):
        face, lo, w = walls[i]
        assert (lo, face) == (min(cycle[j - 1], cycle[(j + 1) % k]), (i,))
        hi = max(cycle[j - 1], cycle[(j + 1) % k])
        assert math.gcd(*w) == 1 and w[lo] > 0 and w[hi] > 0
        assert all(w[x] == 0 for x in range(k) if x not in (lo, i, hi))
        assert [sum(wj * v[t] for wj, v in zip(w, vecs)) for t in (0, 1)] == [0, 0]
        assert tuple(F(x, w[lo]) for x in w) == _cross_relation(vecs, cycle, j)


# SHA-256 of the canonical JSON of validate, box and check on the
# weighted family and its resolutions in dims 2-7, where the wall test
# works on n x n factors
FAMILY_DIGESTS = {
    "validate": "5a0c9029ae111e610af4bee5d51050740c16b1662774d68e8e5c9286e18eaba8",
    "box wpn_fan(2)": "97740a30d4f6ea578656369a669f64b2d5a20eb2da06cad9fb75c0eb56df5140",
    "check wpn_fan(2)": "e942fba13ba3e933abe287157948063033940ed4c48ce9cbf05188fdc4015a1c",
    "box wpn_fan(3)": "ce999a5c2d3403cd3f16ecab4c21d5be147e19b25245bb8b2e7664be9c5396b0",
    "check wpn_fan(3)": "e6b3152345517e582c2ad27d25bb406bd85ffa801d0b69c9e619419e8a641b93",
    "box wpn_fan(4)": "77056d383acc6c53901020b3259346acf50dd3dd85ccc691fe71074db1a81b62",
    "check wpn_fan(4)": "196960c43e1df188da61e79ec0a023be41049ef7bc1a0d164851698db2b46c2e",
    "box wpn_fan(5)": "72272dd13446009dab692d72761d3503ed497de40ab25a365c8d25ad54cd6428",
    "check wpn_fan(5)": "7f73e150f4c7d246d8c709d299de89f690ace26d14dc2e7dc1ec322bf3bd018a",
    "box wpn_fan(6)": "d0001fa1615421df804fdf03b4894629e3cce8800ca35a30c10607740a302d3c",
    "check wpn_fan(6)": "637d8ee035af7bc025116c3fcaad53c1bbfbac7fd9d99998a3563c8be83cef1a",
    "box wpn_fan(7)": "5046a694159819bc17339ba1119480cec458789cec88f2fdc514923a3cd9fa03",
    "check wpn_fan(7)": "a32749faa2beda10601914545306037811a1d5beba0a8c7480d454213d050877",
    # every P(K + O) bundle is smooth: its Box is empty
    "box kp_bundle_fan": "aa6d2fbd7d434eaf4dc262f1ea29c5e3d75901196bc87d75cd2eca630981a475",
    "check kp_bundle_fan(2)": "a899de4952c4c451bc112792b20838b3aba3079e475c1d5a18544547c59a9462",
    "check kp_bundle_fan(3)": "4c7eb06c757e33beb48184afbf7369ef18a00644ba27be46cc6fb97d778d9ad9",
    "check kp_bundle_fan(4)": "22ca941dd574db855fc4bee0d2cdc60d068f15105d59564404592c6e15ee4bcd",
    "check kp_bundle_fan(5)": "cb7a2fcb7f979af5e79afb4f883163c5d756916c031735665ef53e171c305f0f",
}


@pytest.mark.parametrize("name", [f"wpn_fan({n})" for n in range(2, 8)]
                         + [f"kp_bundle_fan({n})" for n in range(2, 6)])
@pytest.mark.parametrize("cmd", ["validate", "box", "check"])
def test_family_fan_commands_match_recorded_digest(cmd, name, tmp_path):
    family, n = name.rstrip(")").split("(")
    fan = {"wpn_fan": wpn_fan, "kp_bundle_fan": kp_bundle_fan}[family](int(n))
    path, out = tmp_path / "fan.json", tmp_path / "out.json"
    path.write_text(json.dumps(fan_to_json(fan)))
    assert main([cmd, str(path), "--format", "json", "--out", str(out)]) == 0
    text = json.dumps(json.loads(out.read_text()), sort_keys=True,
                      separators=(",", ":"))
    key = next(k for k in (f"{cmd} {name}", f"{cmd} {family}", cmd)
               if k in FAMILY_DIGESTS)
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_DIGESTS[key]
