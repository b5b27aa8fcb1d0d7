"""Command-line front end.

Commands operate on a stacky-fan JSON file
({"dim": int, "stacky_vectors": [[int]], "max_cones": [[int]],
optional "labels": [int]}) and emit text, canonical JSON, or CSV.
Each command accepts only the flags it reads (`build_parser`).
Exit codes: 0 success, 2 verification failure, 1 input or usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Optional

from . import crc as crc_mod
from .extended import build_extended
from .families import wpn_index
from .fan import (StackyFan, fan_from_json, fan_to_json, is_gorenstein,
                  star_subdivide_xbar, wall_curve_classes)
from .mirror import extract_open_gw, hori_vafa, lf_superpotential, mirror_map
from .series import series_to_json


class SchemaError(ValueError):
    pass


def _load_fan(path: str) -> StackyFan:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read fan file {path}: {e}")
    if not isinstance(data, dict):
        raise SchemaError("fan file must hold a JSON object")
    for key in ("dim", "stacky_vectors", "max_cones"):
        if key not in data:
            raise SchemaError(f"fan file missing required key {key!r}")
    try:
        return fan_from_json(data)
    except (ValueError, TypeError) as e:
        raise SchemaError(f"invalid fan data: {e}")


def _emit(payload: dict, fmt: str, out: Optional[str],
          table: Optional[tuple[str, list[str]]] = None) -> None:
    """Write the payload as JSON, or as text or CSV. With `table` =
    (key, columns), text and CSV print one row per record of
    payload[key], a list cell as JSON; without, one line per key."""
    if table is not None and fmt != "json":
        key, header = table
        rows = [[json.dumps(x) if isinstance(x, list) else x
                 for x in (rec[c] for c in header)] for rec in payload[key]]
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        if table is not None:
            w.writerow(header)
            w.writerows(rows)
        else:
            w.writerow(["key", "value"])
            for k in sorted(payload):
                w.writerow([k, json.dumps(payload[k], sort_keys=True)])
        text = buf.getvalue()
    else:
        lines = []
        if table is not None:
            lines.append("  ".join(header))
            for row in rows:
                lines.append("  ".join(str(x) for x in row))
        else:
            for k in sorted(payload):
                lines.append(f"{k}: {json.dumps(payload[k], sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise SchemaError(f"cannot write output file {out}: {e}")
    else:
        sys.stdout.write(text)


# -- command implementations ---------------------------------------------


def cmd_validate(args) -> int:
    fan = _load_fan(args.fan)
    rep = fan.report
    _emit({"simplicial": rep.simplicial, "complete": rep.complete,
           "errors": list(rep.errors), "valid": rep.valid},
          args.format, args.out)
    return 0 if rep.valid else 2


def cmd_box(args) -> int:
    fan = _load_fan(args.fan)
    payload = {"gorenstein": is_gorenstein(fan),
               "box": [{"nu": _frac_vec(el.nu), "cone": list(el.cone),
                        "t": _frac_vec(el.t), "age": str(el.age),
                        "extended": el.age <= 1} for el in fan.box]}
    _emit(payload, args.format, args.out,
          ("box", ["nu", "cone", "t", "age", "extended"]))
    return 0


def _frac_vec(v) -> list:
    return [str(x) for x in v]


def cmd_check(args) -> int:
    fan = _load_fan(args.fan)
    rep = fan.report
    if not rep.valid:
        _emit({"valid": False, "errors": list(rep.errors)}, args.format, args.out)
        return 2
    walls = wall_curve_classes(fan)
    payload = {
        "gorenstein": is_gorenstein(fan),
        "walls": [{"wall": list(w.wall), "relation": _frac_vec(w.relation),
                   "c1": str(w.c1)} for w in walls],
        "semi_fano": all(w.c1 >= 0 for w in walls),
        "fano": all(w.c1 > 0 for w in walls),
    }
    _emit(payload, args.format, args.out, ("walls", ["wall", "relation", "c1"]))
    return 0


def _potential_json(pot) -> dict:
    return {"gauge": list(pot.gauge),
            "terms": [{"vector": _frac_vec(t.vector),
                       "ray_index": t.ray_index,
                       "extended": t.is_extended,
                       "coefficient": series_to_json(t.coefficient)}
                      for t in pot.terms]}


def cmd_hori_vafa(args) -> int:
    fan = _load_fan(args.fan)
    ext = build_extended(fan)
    pot = hori_vafa(ext, order=args.order)
    _emit(_potential_json(pot), args.format, args.out)
    return 0


def cmd_mirror_map(args) -> int:
    fan = _load_fan(args.fan)
    ext = build_extended(fan)
    mm = mirror_map(ext, args.order)
    payload = {"q_names": list(mm.q_names), "tau_names": list(mm.tau_names),
               "q_denoms": list(mm.q_denoms),
               "log_corrections": [series_to_json(s) for s in mm.log_corrections],
               "tau": [series_to_json(s) for s in mm.tau]}
    _emit(payload, args.format, args.out)
    return 0


def cmd_superpotential(args) -> int:
    fan = _load_fan(args.fan)
    ext = build_extended(fan)
    lf = lf_superpotential(ext, args.order)
    payload = _potential_json(lf.potential)
    payload["status"] = lf.status
    _emit(payload, args.format, args.out)
    return 0


def cmd_open_gw(args) -> int:
    fan = _load_fan(args.fan)
    ext = build_extended(fan)
    tab = extract_open_gw(lf_superpotential(ext, args.order), ext)
    payload = {"status": tab.status,
               "entries": [{"ray": j, "q_exp": _frac_vec(qe),
                            "tau_exp": list(te), "invariant": str(v)}
                           for (j, qe, te), v in sorted(tab.entries.items())]}
    _emit(payload, args.format, args.out,
          ("entries", ["ray", "q_exp", "tau_exp", "invariant"]))
    return 0


def cmd_xbar(args) -> int:
    fan = _load_fan(args.fan)
    extended = [el.nu for el in fan.box if el.age <= 1]
    if not extended:
        raise SchemaError("fan has no twisted sector of age at most one")
    xbar = star_subdivide_xbar(fan, extended[0])
    payload = {"fan": fan_to_json(xbar.fan),
               "boundary_vector": _frac_vec(xbar.boundary_vector),
               "infinity_vector": _frac_vec(xbar.infinity_vector),
               "new_ray_index": xbar.new_ray_index,
               "replaced_ray": xbar.replaced_ray,
               "note": xbar.beta_bar_note}
    _emit(payload, args.format, args.out)
    return 0


def cmd_crc(args) -> int:
    fan = _load_fan(args.fan)
    if not args.resolution:
        raise SchemaError("crc requires --resolution FILE")
    res = _load_fan(args.resolution)
    pair = crc_mod.ResolutionPair.make(fan, res)
    payload = crc_mod.pair_report(pair, order=args.order, tol=args.tol,
                                  wpn=args.wpn)
    failed = (not payload["crepancy"]["crepant"]
              or any(r["status"] != "pass" for r in payload.get("reports", ())))
    _emit(payload, args.format, args.out)
    return 2 if failed else 0


def cmd_specialize(args) -> int:
    fan = _load_fan(args.fan)
    payload = {}
    if args.resolution:
        pair = crc_mod.ResolutionPair.make(fan, _load_fan(args.resolution))
        crep = crc_mod.verify_crepant(pair)
        payload["crepancy"] = crep.to_json()
        if not crep.crepant:
            _emit(payload, args.format, args.out)
            return 2
        n = crc_mod.pair_wpn_index(pair)
    else:
        n = wpn_index(fan)
    reports = crc_mod.specialization_check(n, tol=args.tol)
    payload["reports"] = [r.to_json() for r in reports]
    _emit(payload, args.format, args.out)
    return 0 if all(r.status == "pass" for r in reports) else 2


# command -> (implementation, the flags it reads besides --format and --out)
COMMANDS = {
    "validate": (cmd_validate, ()),
    "box": (cmd_box, ()),
    "check": (cmd_check, ()),
    "hori-vafa": (cmd_hori_vafa, ("--order",)),
    "mirror-map": (cmd_mirror_map, ("--order",)),
    "superpotential": (cmd_superpotential, ("--order",)),
    "open-gw": (cmd_open_gw, ("--order",)),
    "xbar": (cmd_xbar, ()),
    "crc": (cmd_crc, ("--order", "--resolution", "--tol", "--wpn")),
    "specialize": (cmd_specialize, ("--resolution", "--tol")),
}


def _positive(cast):
    """argparse type: cast(text), which must be finite and > 0."""
    def parse(text: str):
        value = cast(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text}")
        return value
    parse.__name__ = f"positive {cast.__name__}"
    return parse


FLAGS = {
    "--order": dict(type=_positive(int), default=10,
                    help="series truncation order"),
    "--resolution": dict(help="path to the resolution fan JSON file"),
    "--tol": dict(type=_positive(float), default=1e-10,
                  help="largest error of a passing report"),
    "--wpn": dict(type=int, help="the n that the pair must have"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (at import, below):
    parse_args keeps no state between calls, so `main` reuses it."""
    p = argparse.ArgumentParser(
        prog="orbimirror",
        description="Landau-Ginzburg mirrors, open invariants, and "
                    "crepant-resolution checks for toric orbifolds.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("fan", help="path to a stacky-fan JSON file")
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
        sp.add_argument("--out", default=None, help="write output to a file")
    return p


# Built at import, so that no command pays for it: a lazy build would
# land on whichever command an in-process caller happens to run first.
build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and 2 on a usage error, which is
        # an input error here: exit code 2 means a failed verification
        return 0 if e.code == 0 else 1
    try:
        return COMMANDS[args.command][0](args)
    except (ValueError, KeyError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
