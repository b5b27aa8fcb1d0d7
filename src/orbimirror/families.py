"""Ready-made stacky fans for the families studied by the package.

The constructors return `StackyFan` objects; as for any fan, validation
runs on first use of `fan.report` (or `fan.box`), not at construction:
  * `wpn_fan(n)` — the weighted projective space P(1,...,1,n) with n
    ones, of dimension n, with a single Z_n quotient singularity;
  * `kp_bundle_fan(n)` — its crepant resolution, the projective bundle
    P(K_{P^{n-1}} + O) over P^{n-1} (the Hirzebruch surface F_n for
    dimension two);
  * `p2_fan()` — the projective plane (smooth, empty Box);
  * `f2_fan()` — the Hirzebruch surface F_2 = kp_bundle_fan(2);
  * `p1_orbifold(a, b)` — the football P^1_{a,b} with two cyclic
    orbifold points.

`wpn_index(fan)` recognises the P(1,...,1,n) family.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .fan import StackyFan, require_valid


def wpn_fan(n: int) -> StackyFan:
    """P(1,...,1,n) with n ones, in dimension n.

    Rays are e_1, ..., e_{n-1}, (-1,...,-1,n), -e_n; every maximal cone
    is smooth except the one omitting the last ray, which has index n.
    For n = 2 this is P(1,1,2) with rays (1,0), (-1,2), (0,-1).
    """
    if n < 2:
        raise ValueError("family requires n >= 2")
    dim = n
    rays = [tuple(1 if j == i else 0 for j in range(dim))
            for i in range(dim - 1)]
    rays.append(tuple([-1] * (dim - 1) + [n]))
    rays.append(tuple([0] * (dim - 1) + [-1]))
    cones = list(combinations(range(dim + 1), dim))
    return StackyFan.make(dim, tuple(rays), tuple(cones))


def wpn_index(fan: StackyFan) -> Optional[int]:
    """n if `fan` has the shape of P(1,...,1,n), else None: dim + 1 rays,
    one maximal cone of index n > 1, n = dim, and Box ages 1, ..., n - 1.
    The indices |det| are read from the fan's cone factors. Raises
    InvalidFanError if the fan has dim + 1 rays but is not valid."""
    n = fan.dim
    if len(fan.stacky_vectors) != n + 1:
        return None
    require_valid(fan)
    indices = [abs(fan.factor(c).det) for c in fan.max_cones]
    if [k for k in indices if k > 1] != [n]:
        return None
    return n if sorted(el.age for el in fan.box) == list(range(1, n)) else None


def kp_bundle_fan(n: int) -> StackyFan:
    """P(K_{P^{n-1}} + O), the crepant resolution of wpn_fan(n): the same
    rays plus the exceptional ray e_{n-1}, with the singular cone star-
    subdivided."""
    base = wpn_fan(n)
    dim = base.dim
    extra = tuple([0] * (dim - 1) + [1])
    rays = base.stacky_vectors + (extra,)
    new_ray = len(rays) - 1
    singular = tuple(range(dim))  # the index-n cone omits the last ray
    cones = [c for c in base.max_cones if c != singular]
    for drop in singular:
        cones.append(tuple(sorted(set(singular) - {drop}) + [new_ray]))
    return StackyFan.make(dim, rays, tuple(cones))


def p2_fan() -> StackyFan:
    return StackyFan.make(2, ((1, 0), (0, 1), (-1, -1)),
                          ((0, 1), (1, 2), (0, 2)))


def f2_fan() -> StackyFan:
    return kp_bundle_fan(2)


def p1_orbifold(a: int, b: int) -> StackyFan:
    """P^1_{a,b}: the football with stacky rays (a) and (-b)."""
    if a < 1 or b < 1:
        raise ValueError("orbifold orders must be positive")
    return StackyFan.make(1, ((a,), (-b,)), ((0,), (1,)))
