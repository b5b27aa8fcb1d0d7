"""End-to-end acceptance checks, one per pinned criterion.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist when run with -s / -v.
"""

import json
import random
import time
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import numpy as np

from orbimirror.crc import crc_exact_identities, crc_numeric_samples, \
    specialization_check
from orbimirror.exact import det
from orbimirror.extended import build_extended
from orbimirror.families import f2_fan, p1_orbifold, wpn_fan
from orbimirror.fan import (StackyFan, _box_of_cone, compute_box,
                            fan_from_json, is_gorenstein, wall_curve_classes)
from orbimirror.mirror import (check_normalization, extract_open_gw,
                               i_function, lf_superpotential, mirror_map,
                               open_closed_bridge)
from orbimirror.series import (PuiseuxSeries, lagrange_invert, make_roster,
                               series_compose, series_exp, substitute)

FANS = Path(__file__).resolve().parent.parent / "fans"


def report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def twisted_table(n: int, order: int) -> dict[int, F]:
    """Disc invariants of P(1,...,1,n) with only twisted insertions,
    keyed by the number l of insertions."""
    fan = wpn_fan(n)
    ext = build_extended(fan)
    lf = lf_superpotential(ext, order)
    tab = extract_open_gw(lf, ext)
    exceptional = len(fan.stacky_vectors)
    out = {}
    for (j, qe, te), v in tab.entries.items():
        if j == exceptional and all(x == 0 for x in qe) and sum(te) > 0:
            out[te[0]] = v
    return out


def closed_form_twisted_invariants(n: int, order: int) -> dict[int, F]:
    """Twisted disc invariants of P(1,...,1,n) for l < order insertions,
    from the closed-form local mirror map of [C^n/Z_n] alone.

    The mirror theorem for toric stacks (Coates-Corti-Iritani-Tseng,
    arXiv:1310.4163) gives the twisted coordinate as
        tau(y) = sum_k (-1)^(nk) y^(nk+1)/(nk+1)! prod_{i<k} (i + 1/n)^n.
    Writing tau = y g(y), Lagrange inversion gives
    [tau^l] y(tau) = [y^(l-1)] g(y)^(-l) / l, and the invariant is
    n_l = l! [tau^l] y(tau).  Plain Fraction arithmetic, no orbimirror
    code, so it is an independent oracle for `twisted_table`.
    """
    g = [F(0)] * order
    prod = F(1)
    for k in range((order - 1) // n + 1):
        g[n * k] = (-1) ** (n * k) * prod / factorial(n * k + 1)
        prod *= (k + F(1, n)) ** n
    g_inv = [F(1)] + [F(0)] * (order - 1)
    for d in range(1, order):
        g_inv[d] = -sum(g[i] * g_inv[d - i] for i in range(1, d + 1))
    out = {}
    power = g_inv[:]  # g^(-l), truncated below degree order
    for l in range(1, order):
        coeff = power[l - 1] / l
        if coeff:
            out[l] = factorial(l) * coeff
        power = [sum(power[i] * g_inv[d - i] for i in range(d + 1))
                 for d in range(order)]
    return out


P112_INVARIANTS = {2 * j + 1: F((-1) ** j, 4 ** j) for j in range(7)}


def test_criterion_1_p112_invariants():
    t0 = time.time()
    got = twisted_table(2, 14)
    elapsed = time.time() - t0
    ok = got == P112_INVARIANTS and elapsed < 1.0
    report(1, "P(1,1,2) invariants are (-1)^j/4^j at l = 2j+1 through l = 13",
           ok, f"{elapsed:.2f}s")


def test_criterion_2_p113_table():
    expected = {1: F(1), 4: F(1, 27), 7: F(-29, 729), 10: F(6607, 19683),
                13: F(-4736087, 531441), 16: F(7710586801, 14348907)}
    oracle_bad = [n for n, order, table in
                  ((3, 17, expected), (2, 14, P112_INVARIANTS))
                  if closed_form_twisted_invariants(n, order) != table]
    t0 = time.time()
    got = twisted_table(3, 17)
    elapsed = time.time() - t0
    zeros_ok = all(l % 3 == 1 for l in got)
    matches = {l: got.get(l) == v for l, v in expected.items()}
    ok = (zeros_ok and all(matches.values()) and not oracle_bad
          and elapsed < 5.0)
    detail = f"{elapsed:.2f}s"
    bad = [l for l, m in matches.items() if not m]
    if bad:
        detail += "; mismatch at l = " + ", ".join(
            f"{l}: got {got.get(l)}" for l in bad)
    if oracle_bad:
        detail += "; closed-form oracle disagrees with the table at n = " + \
            ", ".join(map(str, oracle_bad))
    report(2, "P(1,1,1,3) invariants match the pinned table at "
              "l = 1,4,7,10,13,16, which is the inverse of the closed-form "
              "mirror map, and vanish off l = 1 mod 3", ok, detail)


def test_criterion_3_f2_exceptional_generating_function():
    ext = build_extended(f2_fan())
    tab = extract_open_gw(lf_superpotential(ext, 9), ext)
    by_ray: dict[int, dict] = {}
    for (j, qe, te), v in tab.entries.items():
        by_ray.setdefault(j, {})[(qe, te)] = v
    zero = (F(0), F(0))
    one = {(zero, ()): F(1)}
    ok = (by_ray[0] == one and by_ray[1] == one and by_ray[2] == one
          and by_ray[3] == {(zero, ()): F(1), ((F(1), F(0)), ()): F(1)})
    report(3, "F2 exceptional generating function is exactly 1 + Q1 "
              "through order 8; all other rays give 1", ok)


def test_criterion_4_open_crc_n2():
    exact = crc_exact_identities(order=12, tol=1e-12)
    sampled = crc_numeric_samples(tol=1e-10)
    ok = all(r.status == "pass" for r in exact) and sampled.status == "pass"
    worst = max([r.max_error for r in exact] + [sampled.max_error])
    report(4, "open CRC identities for P(1,1,2): exact to 1e-12 at order 12, "
              "20-point sampling within 1e-10", ok, f"max error {worst:.2e}")


def test_criterion_5_specialization():
    reports = specialization_check(2)
    ok = all(r.status == "pass" for r in reports)
    report(5, "exceptional term of the resolved potential vanishes at "
              "tau2 = 0 (exactly in closed form, <= 1e-12 sampled)", ok)


def brute_force_parallelepiped_points(gens) -> dict:
    """The lattice points x of {sum t_i g_i : 0 <= t_i < 1}, each with its
    t = adj(B) x / det(B), found by scanning the integer bounding box and
    testing membership with the adjugate."""
    n = len(gens)
    d = det(gens)
    assert d != 0
    # adjugate via cofactors of the column matrix B[i][j] = gens[j][i]
    B = [[gens[j][i] for j in range(n)] for i in range(n)]

    def minor(M, i, j):
        return [row[:j] + row[j + 1:] for k, row in enumerate(M) if k != i]

    if n == 1:
        adj = [[1]]
    else:
        adj = [[(-1) ** (i + j) * det(minor(B, j, i)) for j in range(n)]
               for i in range(n)]
    lo = [sum(min(0, g[c]) for g in gens) for c in range(n)]
    hi = [sum(max(0, g[c]) for g in gens) for c in range(n)]
    axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grid], axis=1)
    A = np.array(adj, dtype=np.int64)
    S = pts @ A.T
    sign = 1 if d > 0 else -1
    inside = ((sign * S >= 0) & (sign * S < abs(d))).all(axis=1)
    return {tuple(int(x) for x in p): tuple(F(int(s), int(d)) for s in row)
            for p, row in zip(pts[inside], S[inside])}


def test_criterion_6_box_size_equals_index():
    rng = random.Random(20240816)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        gens = tuple(tuple(rng.randint(-5, 5) for _ in range(n))
                     for _ in range(n))
        if det(gens) == 0 or any(all(x == 0 for x in g) for g in gens):
            continue
        fan = StackyFan.make(n, gens, (tuple(range(n)),))
        box = _box_of_cone(fan, tuple(range(n)))
        oracle = brute_force_parallelepiped_points(gens)
        index = abs(det(gens))
        # the package omits the identity element and keeps the nonzero t
        # with the rays that carry them
        want = {x: (tuple(j for j in range(n) if t[j]), tuple(tj for tj in t if tj))
                for x, t in oracle.items() if any(t)}
        got = {nu: (el.cone, el.t) for nu, el in box.items()}
        if len(box) + 1 != index or len(oracle) != index or got != want:
            report(6, "Box = lattice points of the parallelepiped on random "
                      "simplicial cones", False,
                   f"gens {gens}: box {len(box) + 1}, det {index}, "
                   f"oracle {len(oracle)}, same points {got == want}")
        checked += 1
    report(6, "Box = lattice points of the parallelepiped, with their t, on "
              "200 random simplicial cones (dim <= 4, entries <= 5) vs "
              "brute-force oracle; |Box| = |det|", True)


def roundtrip_exact(fan, order) -> bool:
    """The inverse Y(q, tau) of the mirror map gives back q_a = Y_a
    exp(A_a(Y)) and tau_b = B_b(Y), each at the order the substitution
    returns."""
    ext = build_extended(fan)
    mm = mirror_map(ext, order)
    Y = mm.inverse()
    images = {mm.y_roster.names[a]: Y[a] for a in range(len(Y))}
    for a, A in enumerate(mm.log_corrections):
        shifted = substitute(A, images, order)
        prod = Y[a] * series_exp(shifted)
        q = PuiseuxSeries.monomial(prod.roster, prod.order,
                                   {mm.q_names[a]: 1})
        if prod != q.truncate(prod.order):
            return False
    for b, B in enumerate(mm.tau):
        back = substitute(B, images, order)
        tau = PuiseuxSeries.monomial(back.roster, back.order,
                                     {mm.tau_names[b]: 1})
        if back != tau.truncate(back.order):
            return False
    return True


# every bundled fan whose mirror map inverts (P^1_{3,5} does not yet)
ROUNDTRIP_FANS = ("p112", "p113", "p114", "f2", "kp3", "p2", "p1")


def test_criterion_7_mirror_roundtrips():
    ok = all(roundtrip_exact(
        fan_from_json(json.loads((FANS / f"{name}.json").read_text())), 10)
        for name in ROUNDTRIP_FANS)
    rng = random.Random(20240817)
    roster = make_roster(["t"])
    for _ in range(100):
        terms = {(1,): F(rng.choice([1, -1, 2, -2, 3]),
                         rng.choice([1, 2, 3]))}
        for k in range(2, 12):
            if rng.random() < 0.6:
                terms[(k,)] = F(rng.randint(-6, 6), rng.randint(1, 6))
        g = PuiseuxSeries(roster, 12, terms)
        f = lagrange_invert(g, 12)
        comp = series_compose(g, f)
        t = PuiseuxSeries.monomial(roster, comp.order, {"t": 1})
        if comp != t.truncate(comp.order):
            ok = False
            break
    report(7, "mirror map round-trips exactly in q and tau to order 10 "
              "on the bundled fans P(1,...,1,n) n = 2,3,4, F2, kp3, P2 "
              "and P1; series inversion composes to the identity "
              "on 100 random series at order 12", ok)


def test_criterion_8_i_function_normalization():
    ok = True
    details = []
    for path in sorted(FANS.glob("*.json")):
        fan = fan_from_json(json.loads(path.read_text()))
        order = 3 if path.stem == "p1_3_5" else 6
        good, errors = check_normalization(i_function(build_extended(fan),
                                                      order))
        if not good:
            ok = False
            details.append(f"{path.stem}: {errors[:2]}")
    report(8, "I-function z^0 coefficient is 1 and the 1/z coefficient "
              "lies in degree <= 2 for every bundled fan", ok,
           "; ".join(details))


def test_criterion_9_diagnostics():
    g_ok = is_gorenstein(wpn_fan(2))
    football = p1_orbifold(3, 5)
    fb_box = compute_box(football)
    fb_ok = (not is_gorenstein(football) and len(fb_box) == 6 and
             sorted(el.age for el in fb_box) ==
             [F(1, 5), F(1, 3), F(2, 5), F(3, 5), F(2, 3), F(4, 5)])
    wall_ok = sorted(w.c1 for w in wall_curve_classes(f2_fan())) == [0, 2, 2, 4]
    report(9, "P(1,1,2) Gorenstein; P1_{3,5} not Gorenstein with 6 sectors "
              "and the pinned age multiset; F2 wall degrees {0,2,2,4}",
           g_ok and fb_ok and wall_ok)


def test_criterion_10_open_closed_bridge():
    ok = True
    for n in (2, 3):
        fan = wpn_fan(n)
        nu = next(el.nu for el in compute_box(fan) if el.age == 1)
        rep = open_closed_bridge(fan, nu, order=10)
        if not (rep.cross_checked and rep.match):
            ok = False
    report(10, "closed-side extraction equals the open-side series to "
               "order 10 for P(1,...,1,n), n = 2, 3", ok)
