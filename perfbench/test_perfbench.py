"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import fangen
import run
import workloads
from tracer import Tracer, summarize

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture(scope="module")
def cli():
    return run.fresh_import()


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("generate", [fangen.random_fans, fangen.benchmark_fans])
def test_generated_fans_are_complete_by_angles(generate, seed):
    for fan in generate(seed, 16):
        rays = fan["stacky_vectors"]
        n = len(rays)
        assert all(math.gcd(*v) == 1 for v in rays)
        assert all(c in (1, 2, 3) for c in fan["labels"])
        assert fan["max_cones"] == [[i, (i + 1) % n] for i in range(n)]
        angles = [math.atan2(v[1], v[0]) for v in rays]
        assert angles == sorted(angles) and len(set(angles)) == n
        gaps = [(angles[(i + 1) % n] - angles[i]) % (2 * math.pi)
                for i in range(n)]
        # each cone is strictly convex and together they wind once
        assert all(0 < g < math.pi for g in gaps)
        assert math.isclose(sum(gaps), 2 * math.pi)
    assert generate(seed, 16) == generate(seed, 16)


def _cone_dets(fan):
    b = fangen.stacky_vectors(fan)
    return sorted(abs(fangen.cross(b[i], b[j])) for i, j in fan["max_cones"])


def test_benchmark_fans_differ_by_seed_but_not_in_work():
    fans = [fangen.benchmark_fans(seed, 16) for seed in range(6)]
    assert all(f != fans[0] for f in fans[1:])
    for batch in fans[1:]:
        for fan, first in zip(batch, fans[0]):
            assert _cone_dets(fan) == _cone_dets(first)
            assert sorted(map(abs, sum(fan["stacky_vectors"], []))) == \
                sorted(map(abs, sum(first["stacky_vectors"], [])))


def _one_pass(cli, jobs, tmp_path):
    res = run.run_pass(cli, jobs, tmp_path)
    failed, _ = run.check_pass(jobs, res, set())
    return res, (len(jobs) - failed) / len(jobs)


def test_tampered_invariant_lowers_correct_frac(cli, tmp_path):
    digests = workloads.load_digests()
    jobs = [j for j in workloads.orbifold_discs(run.ROOT, tmp_path, None, digests)
            if j.key == "open-gw p112 --order 14"]
    res, frac = _one_pass(cli, jobs, tmp_path)
    assert frac == 1
    out = res["outs"][0]
    payload = json.loads(out.read_text())
    entry = next(e for e in payload["entries"] if e["invariant"] == "-1/4")
    entry["invariant"] = "1/4"
    out.write_text(json.dumps(payload))
    failed, _ = run.check_pass(jobs, res, set())
    assert (len(jobs) - failed) / len(jobs) < frac
    # the independent oracle alone catches it, without the digest
    assert workloads.p112_twisted(14)(payload)


def test_generated_fan_oracles_hold(cli, tmp_path):
    jobs = [j for j in workloads.build("fans-crc", run.ROOT, tmp_path, 7,
                                       workloads.load_digests())
            if "random" in j.key]
    assert len(jobs) == 3 * workloads.RANDOM_FANS
    assert _one_pass(cli, jobs, tmp_path)[1] == 1


def test_traced_output_is_byte_identical(cli, tmp_path):
    main = cli.main
    solve = sys.modules["orbimirror.exact"].solve_unique
    inverse = sys.modules["orbimirror.mirror"].MirrorMap.inverse
    argv = ["open-gw", str(run.ROOT / "fans" / "p112.json"), "--order", "6",
            "--format", "json", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain.json")]) == 0
    with Tracer() as tracer:
        assert cli.main is not main
        assert cli.main(argv + [str(tmp_path / "traced.json")]) == 0
    assert cli.main is main
    assert sys.modules["orbimirror.exact"].solve_unique is solve
    assert sys.modules["orbimirror.fan"].solve_unique is solve
    assert sys.modules["orbimirror.mirror"].MirrorMap.inverse is inverse
    assert (tmp_path / "plain.json").read_bytes() == \
        (tmp_path / "traced.json").read_bytes()
    names = {s[0]: s[1] for s in tracer.spans}
    parents = {names[s[0]]: names.get(s[4]) for s in tracer.spans}
    assert parents["series.multivar_invert"] == "mirror.MirrorMap.inverse"
    assert parents["fan.validate_fan"] is not None
    ratio = summarize(tracer.spans)["order_ratio.min"]
    assert ratio == Fraction(11, 12)  # O(11/2) where 6 was asked for


def test_self_time_subtracts_children():
    spans = [(1, "fan.validate_fan", 1.0, 2.0, 0, "j", None),
             (2, "exact.det", 3.0, 6.0, 0, "j", None),
             (0, "cli.main", 0.0, 10.0, None, "j", None)]
    out = summarize(spans)
    assert out["cli.main.self_s"] == 6.0
    assert out["fan.self_s"] == 1.0 and out["exact.self_s"] == 3.0
    assert out["trace.spans"] == 3


def test_bare_directory_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for f in run.HERE.iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fans-crc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
