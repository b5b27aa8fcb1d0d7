"""Command-line front end.

Commands operate on a stacky-fan JSON file
({"dim": int, "stacky_vectors": [[int]], "max_cones": [[int]],
optional "labels": [int]}) and emit text, canonical JSON, or CSV.
Each command accepts only the flags it reads (`build_parser`).
Exit codes: 1 on an input or usage error; otherwise 2 when the payload
records a failed verification (`"valid": false`, crepancy
`"crepant": false`, or a report whose status is not `"pass"`), and 0
when it does not (`_verdict`).
"""

from __future__ import annotations

import argparse
import csv
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
# Each takes the loaded fan and the parsed flags and returns (payload,
# table), what `_emit` writes; `main` reads the exit code off the payload.


def cmd_validate(fan, args):
    rep = fan.report
    return {"simplicial": rep.simplicial, "complete": rep.complete,
            "errors": list(rep.errors), "valid": rep.valid}, None


def cmd_box(fan, args):
    payload = {"gorenstein": is_gorenstein(fan),
               "box": [{"nu": _frac_vec(el.nu), "cone": list(el.cone),
                        "t": _frac_vec(el.t), "age": str(el.age),
                        "extended": el.age <= 1} for el in fan.box]}
    return payload, ("box", ["nu", "cone", "t", "age", "extended"])


def _frac_vec(v) -> list:
    return [str(x) for x in v]


def cmd_check(fan, args):
    rep = fan.report
    if not rep.valid:
        return {"valid": False, "errors": list(rep.errors)}, None
    walls = wall_curve_classes(fan)
    payload = {
        "gorenstein": is_gorenstein(fan),
        "walls": [{"wall": list(w.wall), "relation": _frac_vec(w.relation),
                   "c1": str(w.c1)} for w in walls],
        "semi_fano": all(w.c1 >= 0 for w in walls),
        "fano": all(w.c1 > 0 for w in walls),
    }
    return payload, ("walls", ["wall", "relation", "c1"])


def _potential_json(pot) -> dict:
    return {"gauge": list(pot.gauge),
            "terms": [{"vector": _frac_vec(t.vector),
                       "ray_index": t.ray_index,
                       "extended": t.is_extended,
                       "coefficient": series_to_json(t.coefficient)}
                      for t in pot.terms]}


def cmd_hori_vafa(fan, args):
    pot = hori_vafa(build_extended(fan), order=args.order)
    return _potential_json(pot), None


def cmd_mirror_map(fan, args):
    mm = mirror_map(build_extended(fan), args.order)
    return {"q_names": list(mm.q_names), "tau_names": list(mm.tau_names),
            "q_denoms": list(mm.q_denoms),
            "log_corrections": [series_to_json(s) for s in mm.log_corrections],
            "tau": [series_to_json(s) for s in mm.tau]}, None


def cmd_superpotential(fan, args):
    lf = lf_superpotential(build_extended(fan), args.order)
    payload = _potential_json(lf.potential)
    payload["status"] = lf.status
    return payload, None


def cmd_open_gw(fan, args):
    ext = build_extended(fan)
    tab = extract_open_gw(lf_superpotential(ext, args.order), ext)
    payload = {"status": tab.status,
               "entries": [{"ray": j, "q_exp": _frac_vec(qe),
                            "tau_exp": list(te), "invariant": str(v)}
                           for (j, qe, te), v in sorted(tab.entries.items())]}
    return payload, ("entries", ["ray", "q_exp", "tau_exp", "invariant"])


def cmd_xbar(fan, args):
    extended = [el.nu for el in fan.box if el.age <= 1]
    if not extended:
        raise SchemaError("fan has no twisted sector of age at most one")
    xbar = star_subdivide_xbar(fan, extended[0])
    return {"fan": fan_to_json(xbar.fan),
            "boundary_vector": _frac_vec(xbar.boundary_vector),
            "infinity_vector": _frac_vec(xbar.infinity_vector),
            "new_ray_index": xbar.new_ray_index,
            "replaced_ray": xbar.replaced_ray,
            "note": xbar.beta_bar_note}, None


def cmd_crc(fan, args):
    if not args.resolution:
        raise SchemaError("crc requires --resolution FILE")
    pair = crc_mod.ResolutionPair.make(fan, _load_fan(args.resolution))
    return crc_mod.pair_report(pair, order=args.order, tol=args.tol,
                               wpn=args.wpn), None


def cmd_specialize(fan, args):
    payload = {}
    if args.resolution:
        pair = crc_mod.ResolutionPair.make(fan, _load_fan(args.resolution))
        crep = crc_mod.verify_crepant(pair)
        payload["crepancy"] = crep.to_json()
        if not crep.crepant:
            return payload, None
        n = crc_mod.pair_wpn_index(pair)
    else:
        n = wpn_index(fan)
    reports = crc_mod.specialization_check(n, tol=args.tol)
    payload["reports"] = [r.to_json() for r in reports]
    return payload, None


def _verdict(payload: dict) -> int:
    """The exit code of a command that ran: 2 when its payload records a
    failed verification (an invalid fan, a pair that is not crepant, or
    a report that is not "pass"), 0 otherwise."""
    failed = (payload.get("valid") is False
              or payload.get("crepancy", {}).get("crepant") is False
              or any(r["status"] != "pass" for r in payload.get("reports", ())))
    return 2 if failed else 0


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


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per entry of COMMANDS, with the flags it reads."""
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


# Built once, at import, so that no command pays for it: parse_args
# keeps no state between calls, so `main` reuses it.
PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and 2 on a usage error, which is
        # an input error here: exit code 2 means a failed verification
        return 0 if e.code == 0 else 1
    try:
        payload, table = COMMANDS[args.command][0](_load_fan(args.fan), args)
        _emit(payload, args.format, args.out, table)
    except (ValueError, KeyError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return _verdict(payload)


if __name__ == "__main__":
    sys.exit(main())
