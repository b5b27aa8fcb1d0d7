"""Stacky fans, Box elements, wall curve classes and the X-bar construction.

A stacky fan is a complete simplicial fan together with a lattice
vector b_j = c_j v_j on each ray (v_j primitive, c_j >= 1). The Box of
a cone collects the twisted sectors nu = sum t_k b_{i_k} with
t_k in [0,1) and nu integral; the age of nu is sum t_k. A basic disc
class beta_j or beta_nu is named by its boundary vector b0, a stacky
vector b_j or a Box element nu; the two never coincide, since nu lies
strictly inside its minimal cone. The X-bar construction closes the
class up by adjoining the ray at -b0.
"""

import itertools
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .exact import SmithFactor, Vec, primitive_vector
# not called here; perfbench/test_perfbench.py checks that the tracer
# restores this module's binding of it
from .exact import solve_unique  # noqa: F401


class InvalidFanError(ValueError):
    pass


class IncompleteFanError(ValueError):
    pass


class StackyFan:
    """Stacky vectors b_j in Z^dim and maximal cones as tuples of ray
    indices (sorted by `make`).

    A plain class, not a tuple, so that it has a `__dict__`: the
    validation report, the Box and the Smith factor of each maximal
    cone (`factor`) are computed on first use and kept there, not in a
    module cache, so they go with the fan. Equality and hashing read the
    three fields only, so a fan whose caches are filled equals a fresh
    one. The fields are not changed after construction.
    """

    def __init__(self, dim: int, stacky_vectors: tuple[Vec, ...],
                 max_cones: tuple[tuple[int, ...], ...]):
        self.dim = dim
        self.stacky_vectors = stacky_vectors
        self.max_cones = max_cones

    def _key(self) -> tuple:
        return (self.dim, self.stacky_vectors, self.max_cones)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return ("StackyFan(dim=%r, stacky_vectors=%r, max_cones=%r)"
                % self._key())

    @staticmethod
    def make(dim, stacky_vectors, max_cones) -> "StackyFan":
        vecs = tuple(tuple(int(x) for x in v) for v in stacky_vectors)
        cones = tuple(sorted(tuple(sorted(int(i) for i in c)) for c in max_cones))
        return StackyFan(dim, vecs, cones)

    @property
    def n_rays(self) -> int:
        return len(self.stacky_vectors)

    def cone_generators(self, cone: Sequence[int]) -> list[Vec]:
        return [self.stacky_vectors[i] for i in cone]

    @cached_property
    def report(self) -> "FanReport":
        return validate_fan(self)

    @cached_property
    def box(self) -> tuple["BoxElement", ...]:
        return compute_box(self)

    @cached_property
    def _factors(self) -> dict[tuple[int, ...], SmithFactor]:
        return {}

    def factor(self, cone: tuple[int, ...]) -> SmithFactor:
        """The Smith factor of the matrix whose columns are the cone's
        generators. The cone must have dim distinct rays in range;
        `validate_fan` checks that before it asks."""
        f = self._factors.get(cone)
        if f is None:
            f = self._factors[cone] = SmithFactor(
                [list(row) for row in zip(*self.cone_generators(cone))])
        return f

    def in_cone(self, cone: tuple[int, ...], v: Sequence) -> Optional[list[int]]:
        """The integer numerators, over a positive denominator, of the
        coefficients of v on the cone's generators when all are
        nonnegative, else None (v outside the cone). A numerator has its
        coefficient's sign, which is all that the callers read."""
        x = self.factor(cone).scaled_solve(v)
        return x[0] if x is not None and min(x[0]) >= 0 else None


def _json_int(x, what: str) -> int:
    """x if it is a JSON integer; a float or bool would be truncated."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def fan_from_json(data: dict) -> StackyFan:
    dim = _json_int(data["dim"], "dim")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    vecs = [[_json_int(x, "stacky vector entry") for x in v]
            for v in data["stacky_vectors"]]
    cones = [[_json_int(i, "cone index") for i in c] for c in data["max_cones"]]
    if "labels" in data:
        labels = [_json_int(c, "label") for c in data["labels"]]
        if len(labels) != len(vecs):
            raise ValueError("labels length mismatch")
        if any(c < 1 for c in labels):
            raise ValueError(f"labels must be at least 1, got {labels}")
        vecs = [[c * x for x in v] for c, v in zip(labels, vecs)]
    return StackyFan.make(dim, vecs, cones)


def fan_to_json(fan: StackyFan) -> dict:
    return {"dim": fan.dim,
            "stacky_vectors": [list(v) for v in fan.stacky_vectors],
            "max_cones": [list(c) for c in fan.max_cones]}


class FanReport(NamedTuple):
    simplicial: bool
    complete: bool
    errors: tuple[str, ...]
    # (face, lo, w) per wall, sorted by face, with w the relation of
    # completeness test (a); empty unless (a) and (b) pass
    walls: tuple[tuple[tuple[int, ...], int, Vec], ...] = ()

    @property
    def valid(self) -> bool:
        return self.simplicial and self.complete and not self.errors


def _walls(fan: StackyFan) -> dict[frozenset, list[tuple[int, ...]]]:
    """Each (n-1)-face of a maximal cone -> the maximal cones containing it."""
    walls: dict[frozenset, list] = {}
    for c in fan.max_cones:
        for f in itertools.combinations(c, fan.dim - 1):
            walls.setdefault(frozenset(f), []).append(c)
    return walls


def validate_fan(fan: StackyFan) -> FanReport:
    """Check that the fan is simplicial and complete, exactly.

    The fan is complete when every wall lies in exactly two maximal
    cones and
      (a) at each wall f, with lo the lower-indexed and hi the other of
          the two rays off it, the primitive integer relation
          w_lo b_lo + sum_{k in f} w_k b_k + w_hi b_hi = 0 with
          w_lo > 0 has w_hi > 0, and
      (b) the interior point p = sum of the generators of the first
          maximal cone lies in no other maximal cone.
    (a) finds w by solving -b_lo on the generators of the cone f + hi
    across the wall, and keeps it on the report (`FanReport.walls`)
    for the wall curve classes and the nef basis. The cone f + lo has
    independent generators, so w is unique up to scale and w_hi != 0;
    and w_hi det(f, b_hi) = -w_lo det(f, b_lo), so (a) says that the
    two opposite rays lie on opposite sides of the wall's hyperplane.
    Let d(x) count the maximal cones whose interior contains x. By (a),
    crossing a wall leaves one cone and enters the other, so d is
    constant off the walls (their codimension-2 faces do not separate
    R^n minus 0). By (b), d(p) = 1. Hence every generic direction lies
    in exactly one cone: the cones cover R^n and their interiors are
    disjoint. A fan that folds over a wall fails (a); one that winds
    around the origin twice, or falls into pieces, fails (b). In dim 1
    the only wall is the empty face, which every maximal cone contains,
    so the fan is complete just when it has two cones on opposite
    sides. The rank test, (a) and (b) all read the cones' Smith factors
    (`StackyFan.factor`), which are built here, after each cone is
    checked to have n distinct rays in range.
    """
    errors = []
    n = fan.dim
    vecs = fan.stacky_vectors
    if any(len(v) != n for v in vecs):
        return FanReport(False, False, ("ray dimension mismatch",))
    if any(all(x == 0 for x in v) for v in vecs):
        return FanReport(False, False, ("zero stacky vector",))
    if any(not 0 <= i < len(vecs) for c in fan.max_cones for i in c):
        return FanReport(False, False, ("cone index out of range",))
    prims = set()
    for v in vecs:
        p = primitive_vector(v)
        if p in prims:
            errors.append(f"repeated ray direction {p}")
        prims.add(p)
    simplicial = True
    for c in fan.max_cones:
        if len(c) != n or len(set(c)) != n:
            simplicial = False
            errors.append(f"cone {c} does not have {n} distinct rays")
            continue
        if fan.factor(c).rank < n:
            simplicial = False
            errors.append(f"cone {c} has dependent generators")
    if not simplicial:
        return FanReport(False, False, tuple(errors))

    bad, walls = _completeness_errors(fan)
    return FanReport(True, not bad, tuple(errors + bad), walls)


def _completeness_errors(fan: StackyFan) -> tuple[list[str], tuple]:
    """The errors of tests (a) and (b) of `validate_fan`, and the wall
    relations of `FanReport.walls` when there are none."""
    n, vecs = fan.dim, fan.stacky_vectors
    if not fan.max_cones:
        return ["fan has no maximal cones"], ()
    walls = _walls(fan)
    bad = [f"wall {tuple(sorted(f))} lies in {len(cs)} max cones"
           for f, cs in walls.items() if len(cs) != 2]
    if bad:
        return bad, ()
    kept = []
    for f, (sigma0, sigma1) in walls.items():
        (e0,) = set(sigma0) - f
        (e1,) = set(sigma1) - f
        lo, hi, across = (e0, e1, sigma1) if e0 < e1 else (e1, e0, sigma0)
        face = tuple(sorted(f))
        # -b_lo on the generators of the cone across the wall from lo
        num, q = fan.factor(across).scaled_solve([-x for x in vecs[lo]])
        w = [0] * fan.n_rays
        w[lo] = q
        for j, x in zip(across, num):
            w[j] = x
        w = primitive_vector(w)
        if w[hi] <= 0:
            bad.append(f"cones {sigma0} and {sigma1} lie on the same side "
                       f"of wall {face}")
        kept.append((face, lo, w))
    if bad:
        return bad, ()
    first = fan.max_cones[0]
    p = [sum(vecs[j][i] for j in first) for i in range(n)]
    return [f"interior point {tuple(p)} of cone {first} also lies in cone {c}"
            for c in fan.max_cones[1:]
            if fan.in_cone(c, p) is not None], tuple(sorted(kept))


def require_valid(fan: StackyFan, error: type[ValueError] = InvalidFanError,
                  prefix: str = "") -> None:
    """Raise `error` with the fan's validation errors unless it is valid."""
    if not fan.report.valid:
        raise error(prefix + "; ".join(fan.report.errors))


class BoxElement(NamedTuple):
    nu: Vec
    cone: tuple[int, ...]
    t: tuple[Fraction, ...]
    age: Fraction


def _box_of_cone(fan: StackyFan, cone: Sequence[int],
                 found: dict[Vec, BoxElement] | None = None
                 ) -> dict[Vec, BoxElement]:
    """Add the Box elements of a full-dim cone, those of its faces
    included, to `found` (a new dict by default) and return it.

    With B the generator matrix and U B V = S its Smith form, U carries
    N / B N onto the group of y in prod Z/d_i, and the representative
    x = U^{-1} y has coordinates t = B^{-1} x = V S^{-1} y on the
    generators. So t_j = frac(sum_i V[j][i] y_i / d_i), computed in
    integers as (VS y)_j / D over D = d_n, which every d_i divides; a
    y_i with d_i = 1 is 0, so only the factors with d_i > 1 are walked.
    A nu already in `found` lies on a shared face. Its t is the unique
    expansion of nu over the independent generators of its support, so
    the two agree when their supports do, and that is checked before
    any Fraction is built. Every t_j and age is read from one table of
    the k / D.
    """
    if found is None:
        found = {}
    factor = fan.factor(cone)
    n, D = fan.dim, factor.D
    if D == 1:
        return found
    gens = fan.cone_generators(cone)
    walked = [i for i, d in enumerate(factor.diag) if d > 1]
    cols = [[row[i] for row in factor.VS] for i in walked]
    frac = [Fraction(k, D) for k in range(n * (D - 1) + 1)]
    for y in itertools.product(*[range(factor.diag[i]) for i in walked]):
        num = [sum(c[j] * yi for c, yi in zip(cols, y)) % D for j in range(n)]
        if not any(num):
            continue
        x = [sum(num[j] * gens[j][i] for j in range(n)) for i in range(n)]
        assert all(xi % D == 0 for xi in x)
        nu = tuple(xi // D for xi in x)
        support = tuple(cone[j] for j in range(n) if num[j])
        el = found.get(nu)
        if el is None:
            found[nu] = BoxElement(nu, support, tuple(frac[k] for k in num if k),
                                   frac[sum(num)])
        elif el.cone != support:
            raise InvalidFanError(f"inconsistent Box element at {nu}")
    return found


def compute_box(fan: StackyFan) -> tuple[BoxElement, ...]:
    """Box' of the fan: nonzero twisted sectors, one per minimal cone."""
    require_valid(fan)
    found: dict[Vec, BoxElement] = {}
    for c in fan.max_cones:
        _box_of_cone(fan, c, found)
    return tuple(found[k] for k in sorted(found))


def is_gorenstein(fan: StackyFan) -> bool:
    """Whether every twisted sector has integral age, read from the
    Smith factors of the maximal cones; the Box is not built.

    On a maximal cone sigma with generator matrix B, the linear form
    m = 1^T B^{-1} takes the value 1 on each generator b_i, and a Box
    element nu = sum t_k b_k of sigma or of one of its faces has age
    sum t_k = m(nu). N is generated by Box(sigma) and the b_i, since
    v - sum floor(x_i) b_i lies in Box(sigma) for v = sum x_i b_i. So
    the ages on sigma are all integral iff m is integral on N, that is
    iff D m = 1^T (D B^{-1}) is 0 mod D, with D B^{-1} =
    `scaled_inverse()`: D divides every column sum. Every Box element
    lies in some maximal cone, so X is Gorenstein iff this holds on
    every maximal cone.
    """
    require_valid(fan)
    for c in fan.max_cones:
        factor = fan.factor(c)
        D = factor.D
        if D > 1 and any(sum(col) % D for col in zip(*factor.scaled_inverse())):
            return False
    return True


class WallCurve(NamedTuple):
    wall: tuple[int, ...]
    relation: tuple[Fraction, ...]
    c1: Fraction


def wall_curve_classes(fan: StackyFan) -> list[WallCurve]:
    """One curve class per wall of the fan.

    The relation sum a_j b_j = 0 is supported on the wall rays plus the
    two opposite rays; it is normalized so the lower-indexed opposite
    ray has coefficient 1 (the two opposite coefficients need not be
    equal for orbifold fans). c1 = sum a_j. It is the integer relation
    that validation kept (`FanReport.walls`) divided by that
    coefficient, so nothing is solved here.
    """
    require_valid(fan)
    out = []
    for face, lo, w in fan.report.walls:
        rel = tuple(Fraction(x, w[lo]) for x in w)
        out.append(WallCurve(face, rel, sum(rel)))
    return out


def primitive_collections(fan: StackyFan) -> list[tuple[int, ...]]:
    require_valid(fan)
    faces = set()
    for c in fan.max_cones:
        for k in range(len(c) + 1):
            for f in itertools.combinations(c, k):
                faces.add(f)
    m = fan.n_rays
    out = []
    for k in range(1, m + 1):
        for s in itertools.combinations(range(m), k):
            if s in faces:
                continue
            if all(tuple(x for x in s if x != i) in faces for i in s):
                out.append(s)
    return out


def minimal_containing_cone(fan: StackyFan, v: Sequence) -> tuple[int, ...]:
    """Indices of the rays of the unique minimal cone containing v."""
    if all(x == 0 for x in v):
        return ()
    for c in fan.max_cones:
        coeffs = fan.in_cone(c, v)
        if coeffs is not None:
            return tuple(i for i, t in zip(c, coeffs) if t > 0)
    raise IncompleteFanError(f"no cone contains {tuple(v)}")


# -- the X-bar construction ----------------------------------------------


class XBarResult(NamedTuple):
    fan: StackyFan
    boundary_vector: Vec
    infinity_vector: Vec
    new_ray_index: int          # index of the ray carrying b_infinity
    replaced_ray: bool          # True when b_infinity sat on an existing ray
    beta_bar_note: str


def star_subdivide_xbar(fan: StackyFan, b0: Sequence[int]) -> XBarResult:
    """Compactify the basic disc class with boundary vector b0, a stacky
    vector b_j or a Box element nu: adjoin (or reuse) the ray at -b0.

    Returns the fan X-bar together with bookkeeping for the closed class
    beta-bar = beta + beta_infinity, which satisfies d(beta-bar) = 0.
    """
    require_valid(fan, IncompleteFanError)
    b0 = tuple(b0)
    if b0 not in fan.stacky_vectors and b0 not in {el.nu for el in fan.box}:
        raise ValueError(f"{b0} is neither a stacky vector nor a Box element "
                         "of the fan, so it names no basic disc class")
    b_inf = tuple(-x for x in b0)
    C = minimal_containing_cone(fan, b_inf)
    if len(C) == 1:
        j0 = C[0]
        vecs = list(fan.stacky_vectors)
        vecs[j0] = b_inf
        newfan = StackyFan.make(fan.dim, vecs, fan.max_cones)
        note = (f"beta-bar = beta + beta_{j0}; the opposite vector lies on "
                f"ray {j0}, whose stacky vector becomes {b_inf}")
        return XBarResult(newfan, b0, b_inf, j0, True, note)
    m = fan.n_rays
    vecs = list(fan.stacky_vectors) + [b_inf]
    cones = []
    cset = set(C)
    for c in fan.max_cones:
        if cset <= set(c):
            for i in C:
                cones.append(tuple(sorted([x for x in c if x != i] + [m])))
        else:
            cones.append(c)
    newfan = StackyFan.make(fan.dim, vecs, cones)
    require_valid(newfan, prefix="star subdivision failed: ")
    note = (f"beta-bar = beta + beta_{m}; new ray {m} at {b_inf} star-subdivides "
            f"the cones containing {C}")
    return XBarResult(newfan, b0, b_inf, m, False, note)
