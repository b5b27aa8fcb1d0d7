"""Seeded random complete simplicial 2D stacky fans.

Pure Python, independent of orbimirror, so that the oracles built on
these fans share no code with the program under test.

A fan is n primitive integer rays sorted by angle, with one maximal
cone per cyclically consecutive pair. Every consecutive pair has a
positive integer cross product, so each cone is strictly convex and
the cones wind once around the origin: the fan is simplicial and
complete. Each ray carries a label in 1..3 (stacky vector = label * ray).

The benchmark does not draw fresh fans for each seed: the cost of a
fan's jobs varies twofold between draws, so the work of a pass would
follow the seed. It draws a fixed set once and lets the seed pick, for
each fan, one of the eight lattice symmetries of Z^2 (rotations by
quarter turns and reflections). These keep every ray primitive, every
|det| of a cone and the coordinate sizes, so the work changes little
with the seed (only validate's sampled completeness test depends on the
fan's orientation) while the fans themselves differ.
"""

from __future__ import annotations

import math
import random

LABELS = (1, 2, 3)
TEMPLATE_SEED = 20121  # the fixed draw that benchmark_fans transforms
# the eight signed permutation matrices (a, b, c, d) : v -> (a x + b y, c x + d y)
SYMMETRIES = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
              (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0))


def cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def random_fan(rng: random.Random, n_rays: int, bound: int = 3) -> dict:
    """One fan in the orbimirror JSON schema (with a "labels" key)."""
    if n_rays < 3:
        raise ValueError("a complete 2D fan needs at least 3 rays")
    while True:
        rays: set[tuple[int, int]] = set()
        while len(rays) < n_rays:
            v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            if v != (0, 0) and math.gcd(*v) == 1:
                rays.add(v)
        order = sorted(rays, key=lambda v: math.atan2(v[1], v[0]))
        if all(cross(order[i], order[(i + 1) % n_rays]) > 0
               for i in range(n_rays)):
            break
    return {"dim": 2,
            "stacky_vectors": [list(v) for v in order],
            "labels": [rng.choice(LABELS) for _ in order],
            "max_cones": [[i, (i + 1) % n_rays] for i in range(n_rays)]}


def random_fans(seed: int, count: int) -> list[dict]:
    """count fans; the ray counts cycle through 3..6 so that the work
    per batch varies little from seed to seed."""
    rng = random.Random(seed)
    return [random_fan(rng, 3 + k % 4) for k in range(count)]


def lattice_image(fan: dict, m: tuple[int, int, int, int]) -> dict:
    """The image of a fan under the integer matrix m of determinant +-1,
    its rays sorted by angle again (each ray keeps its label)."""
    a, b, c, d = m
    pairs = sorted((((a * x + b * y, c * x + d * y), lab)
                    for (x, y), lab in zip(fan["stacky_vectors"], fan["labels"])),
                   key=lambda p: math.atan2(p[0][1], p[0][0]))
    n = len(pairs)
    return {"dim": 2,
            "stacky_vectors": [list(v) for v, _ in pairs],
            "labels": [lab for _, lab in pairs],
            "max_cones": [[i, (i + 1) % n] for i in range(n)]}


def benchmark_fans(seed: int, count: int) -> list[dict]:
    """count fans of equal work for every seed: the seed picks one
    lattice symmetry for each fan of a fixed random draw."""
    rng = random.Random(seed)
    return [lattice_image(fan, rng.choice(SYMMETRIES))
            for fan in random_fans(TEMPLATE_SEED, count)]


def stacky_vectors(fan: dict) -> list[tuple[int, int]]:
    return [(c * v[0], c * v[1])
            for c, v in zip(fan["labels"], fan["stacky_vectors"])]
