"""Stacky fans: validation, Box elements, walls, the X-bar subdivision."""

import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbimirror.exact import cone_index
from orbimirror.extended import build_extended
from orbimirror.fan import (DiscClass, IncompleteFanError, InvalidFanError,
                            NonBasicClassError, StackyFan, basic_box_class,
                            basic_ray_class, compute_box, fan_from_json,
                            fan_to_json, is_gorenstein, primitive_collections,
                            star_subdivide_xbar, validate_fan,
                            wall_curve_classes)
from orbimirror.families import (f2_fan, kp_bundle_fan, p1_orbifold, p2_fan,
                                 wpn_fan, wpn_index)
from strategies import complete_fan_rays


def test_validate_families():
    for fan in (wpn_fan(2), wpn_fan(3), wpn_fan(4), f2_fan(),
                kp_bundle_fan(3), p2_fan(), p1_orbifold(3, 5)):
        assert validate_fan(fan).valid


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wpn_index_family(n):
    assert wpn_index(wpn_fan(n)) == n


@pytest.mark.parametrize("name", ["f2", "kp3", "p1", "p1_3_5", "p2"])
def test_wpn_index_bundled_non_family(name):
    path = Path(__file__).resolve().parent.parent / "fans" / f"{name}.json"
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
    # the turn at ray 1 goes back, so cones (0,1) and (1,2) overlap
    rep = validate_fan(FOLD)
    assert not rep.valid and not rep.complete
    assert any("same side" in e for e in rep.errors)


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


def _parallelepiped_count(g1, g2) -> int:
    """Lattice points t1*g1 + t2*g2 with 0 <= t1, t2 < 1, by scanning the
    bounding box and solving for (t1, t2) with Cramer's rule."""
    d = g1[0] * g2[1] - g1[1] * g2[0]
    xs = range(min(0, g1[0], g2[0], g1[0] + g2[0]),
               max(0, g1[0], g2[0], g1[0] + g2[0]) + 1)
    ys = range(min(0, g1[1], g2[1], g1[1] + g2[1]),
               max(0, g1[1], g2[1], g1[1] + g2[1]) + 1)
    return sum(0 <= F(x * g2[1] - y * g2[0], d) < 1
               and 0 <= F(g1[0] * y - g1[1] * x, d) < 1
               for x in xs for y in ys)


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
        assert inside + 1 == index == _parallelepiped_count(g1, g2)


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
    box = compute_box(fan)
    beta = basic_box_class(fan, 0, box)
    xbar = star_subdivide_xbar(fan, beta)
    # -nu = (0,-1) is already the third ray
    assert xbar.replaced_ray and xbar.new_ray_index == 2
    assert xbar.fan == fan


def test_xbar_star_subdivides():
    fan = p2_fan()
    box = compute_box(fan)
    beta = basic_ray_class(fan, 0, box)
    xbar = star_subdivide_xbar(fan, beta)
    assert not xbar.replaced_ray
    assert xbar.infinity_vector == (-1, 0)
    assert len(xbar.fan.stacky_vectors) == 4
    assert validate_fan(xbar.fan).valid


def test_xbar_requires_basic():
    fan = p2_fan()
    box = compute_box(fan)
    beta = DiscClass(fan, (1, 1, 0), ())
    with pytest.raises(NonBasicClassError):
        star_subdivide_xbar(fan, beta)


def test_xbar_requires_complete():
    fan = StackyFan.make(2, ((1, 0), (0, 1)), ((0, 1),))
    beta = DiscClass(fan, (1, 0), ())
    with pytest.raises(IncompleteFanError):
        star_subdivide_xbar(fan, beta)


def test_fan_json_roundtrip():
    fan = wpn_fan(3)
    data = fan_to_json(fan)
    assert fan_from_json(data) == fan


def test_fan_json_labels():
    data = {"dim": 1, "stacky_vectors": [[1], [-1]],
            "max_cones": [[0], [1]], "labels": [3, 5]}
    fan = fan_from_json(data)
    assert fan.stacky_vectors == ((3,), (-5,))
