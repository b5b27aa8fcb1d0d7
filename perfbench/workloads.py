"""Job lists of the three workloads and the check of every job's output.

A job is one call of ``orbimirror.cli.main(argv + ["--format", "json",
"--out", path])``. It counts as correct only when it returns 0 and its
output passes every check listed for it. Exact outputs are compared
with a digest recorded in ``digests.json``; where an independent oracle
exists it is applied as well. Float outputs (``crc``, ``specialize``)
are checked by report status and ``max_error <= TOL``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import fangen

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
BUNDLED = ("f2", "kp3", "p1", "p112", "p113", "p114", "p1_3_5", "p2")
RANDOM_FANS = 16
TOL = 1e-10

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Job:
    key: str                     # stable id, independent of file paths
    argv: tuple[str, ...]        # CLI arguments before --format/--out
    checks: tuple[Check, ...]
    order: Optional[int] = None  # requested truncation order, if any
    exact: bool = False          # output is exact and has a recorded digest


def digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON form of an output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def _digest_check(key: str, digests: dict) -> Check:
    def check(payload: dict) -> list:
        want = digests.get(key)
        if want is None:
            return [f"no recorded digest for {key!r}"]
        got = digest(payload)
        return [] if got == want else [f"digest {got[:12]} != recorded {want[:12]}"]
    return check


# -- independent oracles for exact open invariants --------------------------


def _twisted(payload: dict, ray: int) -> dict:
    """Invariants on `ray` with zero q-degree and l > 0 twisted insertions."""
    out = {}
    for e in payload["entries"]:
        if e["ray"] == ray and all(Fraction(x) == 0 for x in e["q_exp"]) \
                and sum(e["tau_exp"]) > 0:
            out[e["tau_exp"][0]] = Fraction(e["invariant"])
    return out


def p112_twisted(order: int) -> Check:
    """P(1,1,2): n_l = (-1)^j / 4^j at l = 2j + 1, for every l < order."""
    def check(payload: dict) -> list:
        want = {2 * j + 1: Fraction((-1) ** j, 4 ** j)
                for j in range(order) if 2 * j + 1 < order}
        got = _twisted(payload, 3)
        return [] if got == want else [f"P(1,1,2) twisted invariants {got}"]
    return check


def p113_vanishing(payload: dict) -> list:
    """P(1,1,1,3): twisted invariants vanish off l = 1 (mod 3); n_1 = 1."""
    got = _twisted(payload, 4)
    bad = [l for l in got if l % 3 != 1]
    if bad or got.get(1) != 1:
        return [f"P(1,1,1,3) twisted invariants at l = {sorted(got)}"]
    return []


def f2_exceptional(payload: dict) -> list:
    """F2: the exceptional ray's series is 1 + Q1, every other ray's is 1."""
    by_ray: dict[int, dict] = {}
    for e in payload["entries"]:
        key = (tuple(Fraction(x) for x in e["q_exp"]), tuple(e["tau_exp"]))
        by_ray.setdefault(e["ray"], {})[key] = Fraction(e["invariant"])
    one = {((0, 0), ()): 1}
    want = {0: one, 1: one, 2: one, 3: {((0, 0), ()): 1, ((1, 0), ()): 1}}
    return [] if by_ray == want else [f"F2 generating series {by_ray}"]


# -- oracles for generated fans (no orbimirror code) ------------------------


def fan_valid(payload: dict) -> list:
    ok = payload.get("valid") is True and payload.get("simplicial") is True \
        and payload.get("complete") is True and not payload.get("errors")
    return [] if ok else [f"generated fan reported invalid: {payload}"]


def box_counts(fan: dict) -> Check:
    """Each cone {i, j} supports exactly |det(b_i, b_j)| - 1 Box elements."""
    b = fangen.stacky_vectors(fan)

    def check(payload: dict) -> list:
        errors = []
        for cone in fan["max_cones"]:
            i, j = cone
            want = abs(fangen.cross(b[i], b[j])) - 1
            got = sum(1 for el in payload["box"] if set(el["cone"]) <= set(cone))
            if got != want:
                errors.append(f"cone {cone}: {got} Box elements, expected {want}")
        return errors
    return check


def wall_relations(fan: dict) -> Check:
    """One wall per ray; its relation sums r_i b_i to 0, is supported on
    the wall ray and its two neighbours with positive neighbour
    coefficients, and c1 = sum r_i."""
    b = fangen.stacky_vectors(fan)
    n = len(b)

    def check(payload: dict) -> list:
        walls = payload["walls"]
        if sorted(w["wall"] for w in walls) != [[i] for i in range(n)]:
            return [f"walls {[w['wall'] for w in walls]} for {n} rays"]
        errors = []
        for w in walls:
            (f,) = w["wall"]
            r = [Fraction(x) for x in w["relation"]]
            nbrs = {(f - 1) % n, (f + 1) % n}
            total = [sum(ri * bi[k] for ri, bi in zip(r, b)) for k in (0, 1)]
            if total != [0, 0] or Fraction(w["c1"]) != sum(r) \
                    or any(r[i] for i in range(n) if i not in nbrs | {f}) \
                    or any(r[i] <= 0 for i in nbrs):
                errors.append(f"wall {f}: relation {w['relation']} c1 {w['c1']}")
        return errors
    return check


def reports_pass(payload: dict) -> list:
    """crc / specialize: crepant (when stated) and every report passes
    with max_error <= TOL."""
    errors = []
    if "crepancy" in payload and payload["crepancy"].get("crepant") is not True:
        errors.append("pair is not crepant")
    reports = payload.get("reports") or []
    if not reports:
        errors.append("no verification reports")
    for r in reports:
        if r["status"] != "pass" or not r["max_error"] <= TOL:
            errors.append(f"{r['identity']}: {r['status']} ({r['max_error']})")
    return errors


# -- workloads --------------------------------------------------------------


def _fan(root: Path, name: str) -> str:
    return str(root / "fans" / f"{name}.json")


def _exact(root: Path, digests: dict, cmd: str, fan: str, order=None,
           extra: tuple[Check, ...] = ()) -> Job:
    argv = [cmd, _fan(root, fan)]
    key = f"{cmd} {fan}"
    if order is not None:
        argv += ["--order", str(order)]
        key += f" --order {order}"
    return Job(key, tuple(argv), (_digest_check(key, digests),) + extra, order,
               exact=True)


def orbifold_discs(root: Path, workdir: Path, rng: random.Random,
                   digests: dict) -> list[Job]:
    return [
        _exact(root, digests, "open-gw", "p112", 14, (p112_twisted(14),)),
        _exact(root, digests, "open-gw", "p113", 22, (p113_vanishing,)),
        _exact(root, digests, "open-gw", "p114", 14),
        _exact(root, digests, "mirror-map", "p1_3_5", 3),
    ]


def resolution_discs(root: Path, workdir: Path, rng: random.Random,
                     digests: dict) -> list[Job]:
    return [
        _exact(root, digests, "open-gw", "f2", 12, (f2_exceptional,)),
        _exact(root, digests, "open-gw", "kp3", 8),
    ]


def fans_crc(root: Path, workdir: Path, rng: random.Random,
             digests: dict) -> list[Job]:
    jobs = [_exact(root, digests, cmd, fan)
            for fan in BUNDLED for cmd in ("validate", "box", "check")]
    fandir = workdir / "fans"
    fandir.mkdir(parents=True, exist_ok=True)
    for k, fan in enumerate(fangen.benchmark_fans(rng.randrange(2 ** 32),
                                                  RANDOM_FANS)):
        path = fandir / f"random{k}.json"
        with open(path, "w") as fh:
            json.dump(fan, fh)
        jobs += [Job(f"validate random{k}", ("validate", str(path)), (fan_valid,)),
                 Job(f"box random{k}", ("box", str(path)), (box_counts(fan),)),
                 Job(f"check random{k}", ("check", str(path)),
                     (wall_relations(fan),))]
    pair = ("--resolution", _fan(root, "f2"))
    tol = ("--tol", repr(TOL))
    jobs += [
        Job("crc p112 --resolution f2 --wpn 2",
            ("crc", _fan(root, "p112")) + pair + ("--wpn", "2") + tol,
            (reports_pass,)),
        Job("crc p113 --resolution kp3",
            ("crc", _fan(root, "p113"), "--resolution", _fan(root, "kp3")) + tol,
            (reports_pass,)),
        Job("specialize p112 --resolution f2",
            ("specialize", _fan(root, "p112")) + pair + tol, (reports_pass,)),
    ]
    return jobs


WORKLOADS = {
    "orbifold-discs": orbifold_discs,
    "resolution-discs": resolution_discs,
    "fans-crc": fans_crc,
}


def build(name: str, root: Path, workdir: Path, seed: int,
          digests: dict) -> list[Job]:
    """The workload's jobs in a seed-dependent order; generated inputs
    are written under workdir."""
    rng = random.Random(seed)
    jobs = WORKLOADS[name](root, workdir, rng, digests)
    rng.shuffle(jobs)
    return jobs
