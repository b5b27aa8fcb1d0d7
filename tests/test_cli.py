"""Command-line interface: exit codes, formats, determinism."""

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import orbimirror
import orbimirror.crc as crc_mod
from orbimirror.cli import build_parser, main
from orbimirror.exact import SmithFactor
from orbimirror.extended import build_extended
from orbimirror.families import kp_bundle_fan, wpn_fan
from orbimirror.fan import (StackyFan, fan_from_json, fan_to_json,
                            wall_curve_classes)
from orbimirror.mirror import lf_superpotential
from orbimirror.series import series_to_json
from strategies import cube_fan

FANS = Path(__file__).resolve().parent.parent / "fans"
P112 = str(FANS / "p112.json")
F2 = str(FANS / "f2.json")
P2 = str(FANS / "p2.json")
P113 = str(FANS / "p113.json")
P1_3_5 = str(FANS / "p1_3_5.json")
P114 = str(FANS / "p114.json")
KP3 = str(FANS / "kp3.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", P112)
    assert code == 0


def test_validate_incomplete_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "stacky_vectors": [[1, 0], [0, 1]],
                               "max_cones": [[0, 1]]}))
    code, out = run(capsys, "validate", str(bad))
    assert code == 2


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "validate", str(bad))[0] == 1


def test_missing_schema_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2}))
    assert run(capsys, "validate", str(bad))[0] == 1


@pytest.mark.parametrize("extra", [
    {"stacky_vectors": [[1.9, 0], [-1, 2.5], [0, -1]]},
    {"max_cones": [[0, 1.0], [0, 2], [1, 2]]},
    {"dim": True},
    {"labels": [1, 0, 1]},
    {"labels": [1, -1, 1]},
    {"dim": 0},
    {"dim": -1},
])
def test_non_integer_or_nonpositive_fan_data_exits_1(extra, tmp_path, capsys):
    # int() would read 1.9 as 1 (P(1,1,2) from a malformed file), and a
    # label of -1 would flip its ray into a fan that fails validation
    # with exit 2, as if the input were a valid but incomplete fan; a
    # dim of 0 or below would fail validation the same way
    data = {"dim": 2, "stacky_vectors": [[1, 0], [-1, 2], [0, -1]],
            "max_cones": [[0, 1], [0, 2], [1, 2]], **extra}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for cmd in ("validate", "box"):
        assert main([cmd, str(bad)]) == 1
        assert "invalid fan data" in capsys.readouterr().err


def test_bad_order_exits_1(capsys):
    assert run(capsys, "open-gw", P112, "--order", "0")[0] == 1


def test_missing_fan_exits_1(capsys):
    assert run(capsys, "validate")[0] == 1


def test_unknown_flag_exits_1(capsys):
    # validate reads no --order, so it does not accept one
    assert run(capsys, "validate", P112, "--order", "5")[0] == 1


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "crc", "--help")[0] == 0


def _flags(parser):
    return {a.option_strings[0] for a in parser._actions if a.option_strings
            and a.dest != "help"}


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: _flags(p) - {"--format", "--out"}
             for name, p in sub.choices.items()}
    series = {"--order"}
    assert flags == {
        "validate": set(), "box": set(), "check": set(), "xbar": set(),
        "hori-vafa": series, "superpotential": series, "open-gw": series,
        "mirror-map": series,
        "crc": {"--order", "--resolution", "--tol", "--wpn"},
        "specialize": {"--resolution", "--tol"},
    }
    assert sum(len(f) + 2 for f in flags.values()) == 30


def test_box_smooth_fan_empty(capsys):
    code, out = run(capsys, "box", P2, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["box"] == [] and data["gorenstein"] is True


def test_box_p112(capsys):
    code, out = run(capsys, "box", P112, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["box"]) == 1
    assert data["box"][0]["age"] == "1"


def test_check_f2(capsys):
    code, out = run(capsys, "check", F2, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["semi_fano"] is True and data["fano"] is False


def test_open_gw_p112(capsys):
    code, out = run(capsys, "open-gw", P112, "--order", "8",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    # the l = 3 twisted-sector invariant is -1/4
    hit = [e for e in data["entries"]
           if e["ray"] == 3 and e["tau_exp"] == [3]]
    assert hit and hit[0]["invariant"] == "-1/4"


@pytest.mark.parametrize("fan,order,ray,reached", [
    (F2, 1, 1, "-2"), (F2, 2, 1, "-1"),
    (KP3, 1, 2, "-3"), (KP3, 2, 2, "-2"), (KP3, 3, 2, "-1"),
    (P112, 1, 3, "1/2"), (P113, 1, 4, "2/3"), (P114, 1, 5, "3/4"),
])
def test_open_gw_below_the_basic_term_exits_1(fan, order, ray, reached, capsys):
    # the basic term (1 on a ray, tau_j on an extended ray) lies above the
    # order that ray's generating series reaches, so it is unknown, not 0
    assert main(["open-gw", fan, "--order", str(order)]) == 1
    assert (f"error: basic coefficient for ray {ray} is unknown at the "
            f"requested order {order}: its series reaches only O({reached})"
            in capsys.readouterr().err)


# sha256 of the JSON output at the lowest order that gives invariants,
# as computed before the basic term was compared with the order
@pytest.mark.parametrize("fan,order,digest", [
    (F2, 3, "a2f4c6c9003d0e6f"), (KP3, 4, "2acbfdd688f93b21"),
    (P112, 2, "5052ff41e2d1bf0f"), (P113, 2, "6f5cc6cfb3f40950"),
    (P114, 2, "f0ec2f1f78661815"),
])
def test_open_gw_at_the_lowest_working_order_is_unchanged(fan, order, digest,
                                                         capsys):
    code, out = run(capsys, "open-gw", fan, "--order", str(order),
                    "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


# the X-bar fan of each: the fan itself, with b_index replaced by -b0
XBAR_FANS = {
    P112: ([[1, 0], [-1, 2], [0, -1]], [[0, 1], [0, 2], [1, 2]]),
    P113: ([[1, 0, 0], [0, 1, 0], [-1, -1, 3], [0, 0, -1]],
           [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    P114: ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, -1, -1, 4],
            [0, 0, 0, -1]],
           [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4],
            [1, 2, 3, 4]]),
    # nu = -4, so 4 replaces b_0 = 3
    P1_3_5: ([[4], [-5]], [[0], [1]]),
}


@pytest.mark.parametrize("fan,index,infinity", [
    (P112, 2, ["0", "-1"]),
    (P113, 3, ["0", "0", "-1"]),
    (P114, 4, ["0", "0", "0", "-1"]),
    (P1_3_5, 0, ["4"]),
])
def test_xbar_reuses_the_opposite_ray(fan, index, infinity, capsys):
    # minus the first age <= 1 sector is already a ray of each fan; the
    # whole output is pinned, byte for byte
    code, out = run(capsys, "xbar", fan, "--format", "json")
    assert code == 0
    vectors, cones = XBAR_FANS[fan]
    b_inf = tuple(int(x) for x in infinity)
    expected = {
        "boundary_vector": [str(-x) for x in b_inf],
        "fan": {"dim": len(b_inf), "max_cones": cones, "stacky_vectors": vectors},
        "infinity_vector": infinity,
        "new_ray_index": index,
        "note": (f"beta-bar = beta + beta_{index}; the opposite vector lies on "
                 f"ray {index}, whose stacky vector becomes {b_inf}"),
        "replaced_ray": True}
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_xbar_smooth_fan_exits_1(capsys):
    assert main(["xbar", P2, "--format", "json"]) == 1
    assert ("fan has no twisted sector of age at most one"
            in capsys.readouterr().err)


def test_crc_pair_passes(capsys):
    code, out = run(capsys, "crc", P112, "--resolution", F2,
                    "--wpn", "2", "--order", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["crepancy"]["crepant"] is True


def test_crc_verifies_once(monkeypatch, capsys):
    # --wpn naming the detected n reuses the pair report's checks
    calls = []
    verify = crc_mod.crc_verify

    def counting(*args, **kwargs):
        calls.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(crc_mod, "crc_verify", counting)
    code, _ = run(capsys, "crc", P112, "--resolution", F2, "--wpn", "2")
    assert code == 0 and len(calls) == 1


def test_crc_honours_tol(capsys):
    # the detected n = 2 reports are held to --tol without --wpn too
    code, _ = run(capsys, "crc", P112, "--resolution", F2, "--tol", "1e-30")
    assert code == 2


def test_crc_wpn_mismatch_exits_1(capsys):
    assert run(capsys, "crc", P112, "--resolution", F2, "--wpn", "3")[0] == 1
    # a pair outside the family has no n to match
    assert run(capsys, "crc", P2, "--resolution", P2, "--wpn", "2")[0] == 1


def test_crc_wpn_mismatch_exits_before_the_continuation(monkeypatch, capsys):
    # n is compared right after the crepancy check: at --order 300 the
    # n = 2 continuation and its reports took 42 s before the mismatch
    def unreachable(*args, **kwargs):
        raise AssertionError("the continuation ran")

    monkeypatch.setattr("orbimirror.crc.continuation_wpn", unreachable)
    code = main(["crc", P112, "--resolution", F2, "--wpn", "3"])
    cap = capsys.readouterr()
    assert (code, cap.out) == (1, "")
    assert cap.err == "error: --wpn 3 does not match the pair (detected n: 2)\n"


@pytest.mark.parametrize("argv,code", [
    (["crc", P112, "--resolution", F2, "--wpn", "2"], 0),
    (["crc", P112, "--resolution", F2, "--wpn", "3"], 1),
    (["specialize", P112, "--resolution", F2], 0),
], ids=["crc", "crc-mismatch", "specialize"])
def test_resolution_commands_check_crepancy_once(argv, code, monkeypatch, capsys):
    calls = []
    verify = crc_mod.verify_crepant

    def counting(pair):
        calls.append(pair)
        return verify(pair)

    monkeypatch.setattr(crc_mod, "verify_crepant", counting)
    assert main(argv) == code
    assert len(calls) == 1


def test_samples_flag_is_a_usage_error(capsys):
    # the sampled n = 2 comparison always takes crc.SAMPLES points
    assert run(capsys, "crc", P112, "--resolution", F2, "--samples", "20")[0] == 1


@pytest.mark.parametrize("cmd", ["crc", "specialize"])
@pytest.mark.parametrize("tol", ["inf", "1e400", "nan", "0"])
def test_tol_must_be_positive_and_finite(cmd, tol, capsys):
    # an infinite --tol would pass every sampled report
    assert run(capsys, cmd, P112, "--resolution", F2, "--tol", tol)[0] == 1


def test_crc_high_order_continuation(capsys):
    # the Gamma ratios of the continuation overflowed a float near order 250
    code, out = run(capsys, "crc", P113, "--resolution", KP3, "--order", "300",
                    "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["wpn"] == 3
    assert [r["status"] for r in data["reports"]] == ["pass"]
    assert max(map(int, data["continuation"]["coefficients"])) == 299


def test_specialize(capsys):
    code, out = run(capsys, "specialize", P112, "--format", "json")
    assert code == 0
    for rep in json.loads(out)["reports"]:
        assert rep["status"] == "pass"


def test_specialize_reports_crepancy(capsys):
    code, out = run(capsys, "specialize", P112, "--resolution", F2,
                    "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["crepancy"]["crepant"] is True
    assert [r["status"] for r in data["reports"]] == ["pass", "pass"]


@pytest.mark.parametrize("cmd", ["crc", "specialize"])
def test_non_crepant_resolution_exits_2(cmd, tmp_path, capsys):
    # P(1,1,2) refined by the ray (1,1), which is not a Box element
    res = tmp_path / "p112_by_11.json"
    res.write_text(json.dumps({
        "dim": 2, "stacky_vectors": [[1, 0], [-1, 2], [0, -1], [1, 1]],
        "max_cones": [[0, 3], [1, 3], [1, 2], [0, 2]]}))
    code, out = run(capsys, cmd, P112, "--resolution", str(res),
                    "--format", "json")
    assert code == 2
    assert json.loads(out)["crepancy"]["crepant"] is False


def _cube_pair(tmp_path) -> list[str]:
    """The cube fan and the cube fan with one face's diagonal flipped."""
    paths = []
    for flip in (False, True):
        path = tmp_path / f"cube_{flip}.json"
        path.write_text(json.dumps(fan_to_json(cube_fan(flip))))
        paths.append(str(path))
    return paths


def test_crc_non_refinement_exits_2(tmp_path, capsys):
    paths = _cube_pair(tmp_path)
    code, out = run(capsys, "crc", paths[0], "--resolution", paths[1],
                    "--format", "json")
    assert code == 2
    crepancy = json.loads(out)["crepancy"]
    assert crepancy["refinement"] is False and crepancy["crepant"] is False
    assert len(crepancy["issues"]) == 2


def test_crc_wpn_on_a_non_crepant_pair_exits_2(tmp_path, capsys):
    # a pair that is not crepant has no n; it reports its crepancy as
    # without --wpn, instead of a --wpn mismatch
    paths = _cube_pair(tmp_path)
    code, out = run(capsys, "crc", paths[0], "--resolution", paths[1],
                    "--wpn", "3", "--format", "json")
    assert code == 2
    assert json.loads(out)["crepancy"]["crepant"] is False


@pytest.mark.parametrize("path", [F2, P112, KP3])
def test_hori_vafa_json_fixes_the_gauge_cone(path, capsys):
    code, out = run(capsys, "hori-vafa", path, "--order", "4",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    fan = fan_from_json(json.loads(Path(path).read_text()))
    assert data["gauge"] == list(fan.max_cones[0])
    vectors = build_extended(fan).all_vectors()
    assert [t["ray_index"] for t in data["terms"]] == list(range(len(vectors)))
    for t in data["terms"]:
        assert t["vector"] == [str(x) for x in vectors[t["ray_index"]]]
        if t["ray_index"] in data["gauge"]:
            coef = t["coefficient"]
            assert coef["terms"] == [{"exp": ["0"] * len(coef["vars"]),
                                      "coef": "1"}]


@pytest.mark.parametrize("path", [F2, P112, P113])
def test_superpotential_json_matches_lf_superpotential(path, capsys):
    code, out = run(capsys, "superpotential", path, "--order", "4",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    lf = lf_superpotential(build_extended(
        fan_from_json(json.loads(Path(path).read_text()))), 4)
    assert data["status"] == lf.status
    assert data["gauge"] == list(lf.potential.gauge)
    assert data["terms"] == [
        {"vector": [str(x) for x in t.vector], "ray_index": t.ray_index,
         "extended": t.is_extended,
         "coefficient": series_to_json(t.coefficient)}
        for t in lf.potential.terms]


@pytest.mark.parametrize("cmd", ["crc", "specialize"])
def test_invalid_resolution_fan_exits_1(cmd, tmp_path, capsys):
    # F2 without its last cone: two of its walls lie in one max cone only
    data = json.loads(Path(F2).read_text())
    data["max_cones"] = data["max_cones"][:-1]
    res = tmp_path / "f2_open.json"
    res.write_text(json.dumps(data))
    assert run(capsys, "validate", str(res))[0] == 2
    assert main([cmd, P112, "--resolution", str(res)]) == 1
    assert "lies in 1 max cones" in capsys.readouterr().err


@pytest.mark.parametrize("n", [5, 6])
def test_crc_wpn_family_n5_n6(n, tmp_path, capsys):
    paths = []
    for name, fan in (("wpn", wpn_fan(n)), ("kp", kp_bundle_fan(n))):
        path = tmp_path / f"{name}{n}.json"
        path.write_text(json.dumps(fan_to_json(fan)))
        paths.append(str(path))
    code, out = run(capsys, "crc", paths[0], "--resolution", paths[1],
                    "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["crepancy"]["crepant"] is True
    assert data["wpn"] == n
    assert [r["status"] for r in data["reports"]] == ["pass"]


def test_specialize_honours_tol(capsys):
    assert run(capsys, "specialize", P112, "--resolution", F2,
               "--tol", "1e-30")[0] == 2


@pytest.mark.parametrize("fan", [P113, P1_3_5])
def test_specialize_reads_the_fan(fan, capsys):
    # only P(1,1,2) has the n = 2 closed form; other fans exit 1
    assert run(capsys, "specialize", fan)[0] == 1


def test_json_deterministic(capsys):
    _, a = run(capsys, "mirror-map", F2, "--order", "6", "--format", "json")
    _, b = run(capsys, "mirror-map", F2, "--order", "6", "--format", "json")
    assert a == b


def test_csv_parses(capsys):
    code, out = run(capsys, "open-gw", F2, "--order", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) > 1 and rows[0]  # header plus data


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "box.json"
    code, _ = run(capsys, "box", P112, "--format", "json",
                  "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["gorenstein"] is True


RECORDED = json.loads((FANS.parent / "perfbench" / "digests.json").read_text())


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_exact_output_matches_recorded_digest(key, tmp_path, capsys):
    # every exact output recorded for the benchmark (the series of the
    # disc workloads and validate, box and check on each bundled fan) is
    # pinned byte for byte by the SHA-256 of its canonical JSON form
    cmd, fan, *rest = key.split()
    out = tmp_path / "out.json"
    argv = [cmd, str(FANS / f"{fan}.json"), *rest, "--format", "json",
            "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED[key]


# sha256 of the canonical JSON of the two outputs read from the 1/z
# coefficient of the I-function, at --order 6 on every bundled fan where
# they exit 0 (superpotential exits 1 on p1_3_5), as computed when the
# I-function was also built down to 1/z^2
I_FUNCTION_READERS = {
    "mirror-map f2 --order 6":
        "c6c37257964a1ee96c1ff052177a6ff5e8af63629d7f50d9ae2b78de8f89fc3e",
    "mirror-map kp3 --order 6":
        "24accfff717333576ed3670b56eae16376244d06ad31cb1dc00d30874eeb383c",
    "mirror-map p1 --order 6":
        "bfafbbaaa1600cff9ab1935277defd7376a06d35e8357044a4ae44e16a1c7c56",
    "mirror-map p112 --order 6":
        "8a73b4147e292a77d113a2aa21da96ce39e51dabca40d5c9dd51de44d9b258c1",
    "mirror-map p113 --order 6":
        "a7ebe5356d300a6b40b2773afa3d3123e0f30781667c8c8f843daae7d3aeb16b",
    "mirror-map p114 --order 6":
        "288634408f95c6b0bf71a8b2187878d3e8270f24c9cb3c2969fec94de6b5f24a",
    "mirror-map p1_3_5 --order 6":
        "c37c6215410cf11cfbf884763911ec942a2a1b5459c2fe6f5c3bba1224ec16a9",
    "mirror-map p2 --order 6":
        "bfafbbaaa1600cff9ab1935277defd7376a06d35e8357044a4ae44e16a1c7c56",
    "superpotential f2 --order 6":
        "d45ff79a891120652f23a7f964636df68e55d103cda1a53703e04a4edcaf3dc0",
    "superpotential kp3 --order 6":
        "ff002b4e7308752585ab9d64764e7df0e376fdc5267e1cb1ddd0db96c157561f",
    "superpotential p1 --order 6":
        "fe0c939bd47ccc171e9d1755395f6b96509b10b5a6d117fc25acc132d7ec4cc6",
    "superpotential p112 --order 6":
        "28634c27e4eb71fcfe74e5a330f40f5a2629aa72cf413a6f15422528cfcffb84",
    "superpotential p113 --order 6":
        "dc48851e4ac886a7e8b045dff4649a0f9d8853ee3c8af77f79ed5a222d90df94",
    "superpotential p114 --order 6":
        "0a33ff9952609a204cf8fd0cb4550094455f17c0c75b2947f757cc12f6a52f68",
    "superpotential p2 --order 6":
        "c48e0696e385c856fdf75c4c23745d178f2c8009aeddcf18819b1e7e6d1b1a7e",
}


@pytest.mark.parametrize("key", sorted(I_FUNCTION_READERS))
def test_i_function_reader_matches_recorded_digest(key, tmp_path, capsys):
    cmd, fan, *rest = key.split()
    out = tmp_path / "out.json"
    assert main([cmd, str(FANS / f"{fan}.json"), *rest, "--format", "json",
                 "--out", str(out)]) == 0
    text = json.dumps(json.loads(out.read_text()), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == I_FUNCTION_READERS[key]


# sha256 of the text and CSV tables of box, check and open-gw, whose
# rows are read from the records of the JSON payload
TABLES = {
    "box p112 text":
        "aa96a080386803cd19a61680426f92b0ceb0af8fcbd1c018b0ea4f534517c104",
    "box p112 csv":
        "23673e3996ef3c6e7d4bb1178e7a8aaae7c27179ab0cb8dac0af0ccc4e0b4e10",
    "box p2 text":
        "8f8b2eed52f57660a87e27277ad7b86b321da921c646569ee3d9a26b7ca67738",
    "box p2 csv":
        "4402de1d7d17b6773af033529b4928092b234efcd7ac4c43d3911c590f55da1a",
    "box p1_3_5 text":
        "ff842de2819f922c5602ea91634d69bbfccab11ac737907cba03462b59925972",
    "box p1_3_5 csv":
        "e1e775f5afb4cefe352bd54205f36c13f249bc6cb958443682c86d9b4086eaad",
    "check f2 text":
        "4d4094a353577b93cbe47500a20d99bd7a7287e9d66cbb44f75851dd190b0b53",
    "check f2 csv":
        "b382c60359d82efc5452dba2f8c43492b1081bb1fe2d032c65432fdcaa74c6f0",
    "check p1 text":
        "9e9af233c629916842f94466e3dd8f667afa557d5671ccaff509fc0087fd4091",
    "check p1 csv":
        "5fcef108f916cc1db2dd8e8459aca3019a6a83325adc2b1083bacab0bfadd150",
    "open-gw p112 --order 8 text":
        "07720e9b5463951f3d02414940c42bc674b63bca26965af41c837ea0281b1834",
    "open-gw p112 --order 8 csv":
        "d4097a2d632e9417940257d6d55b7cadec92e4846d567f3e48c5d0096117a853",
    "open-gw f2 --order 6 text":
        "7a765dda9c36dbd38bd59dba14597ede08359beae8860dedca63380b904c6bf1",
    "open-gw f2 --order 6 csv":
        "babcea35e473e5ee7ab046ab9e1be7003ebfa5b7f2fcc6c11586de5a1cb1dddb",
}


@pytest.mark.parametrize("key", sorted(TABLES))
def test_table_output_matches_recorded_digest(key, capsys):
    # the text and CSV tables of box, check and open-gw, byte for byte
    cmd, fan, *rest, fmt = key.split()
    code, out = run(capsys, cmd, str(FANS / f"{fan}.json"), *rest,
                    "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES[key]


def test_p1_3_5_open_gw_fails_on_tied_tau_relation(capsys):
    # the tau_3 relation has two lowest terms of weight 4/5,
    # y1^{-6/5} y2^2 and y1^{-1/5} y3, so it cannot be inverted
    assert main(["open-gw", P1_3_5, "--order", "4"]) == 1
    assert "tau relation leading term not unique" in capsys.readouterr().err


# each sequence runs in one process, where main reuses its parser; the
# exit codes of its calls
SEQUENCES = {
    "order then default order": ([["open-gw", P112, "--order", "4"],
                                  ["open-gw", P112]], [0, 0]),
    "wpn then no wpn": ([["crc", P112, "--resolution", F2, "--wpn", "2"],
                         ["crc", P112, "--resolution", F2]], [0, 0]),
    "usage error between good calls": ([["box", P112],
                                        ["validate", P112, "--order", "5"],
                                        ["check", F2]], [0, 1, 0]),
    "help": ([["--help"], ["crc", "--help"], ["validate", P112]], [0, 0, 0]),
}


def _alone(argv):
    """Exit code, stdout and stderr of one main call in a new process."""
    src = str(Path(orbimirror.__file__).resolve().parent.parent)
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "orbimirror.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("target", ["missing-dir", "dir"])
def test_unwritable_out_exits_1(target, tmp_path):
    out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    code, stdout, stderr = _alone(["validate", P2, "--out", str(out)])
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"error: cannot write output file {out}: ")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_parser_carries_no_state_between_calls(name, monkeypatch, capsys):
    calls, codes = SEQUENCES[name]
    monkeypatch.setenv("COLUMNS", "80")   # the width of argparse's help
    together = []
    for argv in calls:
        code = main(argv)
        cap = capsys.readouterr()
        together.append((code, cap.out, cap.err))
    assert [c[0] for c in together] == codes
    assert together == [_alone(argv) for argv in calls]


def _count_factors(monkeypatch) -> Counter:
    """The matrices of the SmithFactor constructions from now on."""
    made: Counter = Counter()
    init = SmithFactor.__init__

    def counting(self, A):
        made[tuple(map(tuple, A))] += 1
        init(self, A)

    monkeypatch.setattr(SmithFactor, "__init__", counting)
    return made


def _load(path) -> StackyFan:
    return fan_from_json(json.loads(Path(path).read_text()))


def _cone_matrices(path) -> Counter:
    fan = _load(path)
    return Counter(tuple(zip(*fan.cone_generators(c))) for c in fan.max_cones)


@pytest.mark.parametrize("name", sorted(p.stem for p in FANS.glob("*.json")))
@pytest.mark.parametrize("cmd", ["validate", "box", "check"])
def test_fan_commands_factor_each_cone_once(cmd, name, monkeypatch, capsys):
    made = _count_factors(monkeypatch)
    assert main([cmd, str(FANS / f"{name}.json")]) == 0
    assert made == _cone_matrices(FANS / f"{name}.json")


def test_crc_factors_no_orbifold_cone_twice(monkeypatch, capsys):
    # p113 shares its three smooth cones with kp3, whose own factors
    # make the second construction of each
    made = _count_factors(monkeypatch)
    assert main(["crc", P113, "--resolution", KP3]) == 0
    resolution = _cone_matrices(KP3)
    for m in _cone_matrices(P113):
        assert made[m] == 1 + resolution[m]


def test_superpotential_factors_each_cone_block_once(monkeypatch):
    # hori_vafa reads the gauge cone's inverse off cone_inverses, which
    # K_eff's units read too, so the gauge block is not factored again
    ext = build_extended(_load(F2))
    made = _count_factors(monkeypatch)
    lf_superpotential(ext, 6)
    assert made == Counter(
        tuple(tuple(d[j] for j in range(ext.m_prime) if j not in sigma)
              for d in ext.basis)
        for sigma in ext.fan.max_cones)


def test_crc_factors_the_resolution_basis_only_in_build_extended(monkeypatch):
    # the chart gluing reads the factor that the saturation check made
    made = _count_factors(monkeypatch)
    basis = tuple(zip(*build_extended(_load(F2)).basis))
    built = made[basis]
    made.clear()
    crc_mod.pair_report(crc_mod.ResolutionPair.make(_load(P112), _load(F2)))
    assert made[basis] == built


def _count_solves(monkeypatch) -> list[SmithFactor]:
    """The factor of each `scaled_solve` call from now on, those made
    through `solve` included."""
    calls: list[SmithFactor] = []
    scaled_solve = SmithFactor.scaled_solve

    def counting(self, b):
        calls.append(self)
        return scaled_solve(self, b)

    monkeypatch.setattr(SmithFactor, "scaled_solve", counting)
    return calls


@pytest.mark.parametrize("name", sorted(p.stem for p in FANS.glob("*.json")))
def test_check_solves_each_wall_once(name, monkeypatch, capsys):
    fan = _load(FANS / f"{name}.json")
    calls = _count_solves(monkeypatch)
    assert main(["check", str(FANS / f"{name}.json")]) == 0
    # each cone has n walls and each wall lies in two cones; test (b)
    # solves the first cone's interior point on each other cone
    walls = len(fan.max_cones) * fan.dim // 2
    assert len(calls) == walls + len(fan.max_cones) - 1


@pytest.mark.parametrize("name", sorted(p.stem for p in FANS.glob("*.json")))
def test_wall_classes_and_nef_basis_solve_no_wall(name, monkeypatch):
    # they read the relations that validation kept
    fan = _load(FANS / f"{name}.json")
    assert fan.report.valid
    calls = _count_solves(monkeypatch)
    wall_curve_classes(fan)
    build_extended(fan)
    cones = list(fan._factors.values())
    assert not [f for f in calls if any(f is c for c in cones)]
