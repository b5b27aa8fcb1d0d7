"""Hypothesis strategies and fans shared by the test modules."""

import importlib.util
import itertools
import math
from pathlib import Path

from hypothesis import strategies as st

from orbimirror.fan import StackyFan


def cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _primitive(v):
    g = math.gcd(*v)
    return (v[0] // g, v[1] // g)


primitive_ray = st.sampled_from([(x, y) for x in range(-4, 5)
                                 for y in range(-4, 5) if math.gcd(x, y) == 1])


@st.composite
def complete_fan_rays(draw, max_rays: int = 6):
    """Rays of a complete simplicial 2D fan with cones between cyclic
    neighbours: 3 to max_rays distinct primitive rays in angle order,
    every cyclically consecutive cross product positive.

    Two independent rays a, b and c = -(s a + t b) with s, t > 0 span
    the plane positively, so every angular gap between them is below
    pi; each further distinct ray only splits a gap.
    """
    a, b = draw(primitive_ray), draw(primitive_ray)
    if cross(a, b) == 0:
        b = (-a[1], a[0])
    s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    c = _primitive((-s * a[0] - t * b[0], -s * a[1] - t * b[1]))
    more = draw(st.lists(primitive_ray, max_size=max_rays - 3))
    rays = sorted({a, b, c, *more}, key=lambda v: math.atan2(v[1], v[0]))
    k = len(rays)
    assert all(cross(rays[i], rays[(i + 1) % k]) > 0 for i in range(k))
    return rays


def hirzebruch_fan(k: int) -> StackyFan:
    """The Hirzebruch surface F_k: rays (1, 0), (0, 1), (-1, k), (0, -1)."""
    return StackyFan.make(2, ((1, 0), (0, 1), (-1, k), (0, -1)),
                          ((0, 1), (1, 2), (2, 3), (3, 0)))


def cube_fan(flip=False):
    """The fan over the faces of the cube [-1, 1]^3, each square face cut
    into two triangles along one diagonal; `flip` cuts the face x = 1
    along the other diagonal."""
    vectors = list(itertools.product((1, -1), repeat=3))
    cones = []
    for i, s in itertools.product(range(3), (1, -1)):
        # the face x_i = s, its corners in cyclic order
        ring = []
        for a, b in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
            v = [a, b]
            v.insert(i, s)
            ring.append(vectors.index(tuple(v)))
        if flip and (i, s) == (0, 1):
            ring = ring[1:] + ring[:1]
        cones += [(ring[0], ring[1], ring[2]), (ring[0], ring[2], ring[3])]
    return StackyFan.make(3, vectors, cones)


def load_fangen():
    """perfbench/fangen.py, the benchmark's seeded random 2D fans."""
    spec = importlib.util.spec_from_file_location(
        "fangen", Path(__file__).resolve().parent.parent / "perfbench" / "fangen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
