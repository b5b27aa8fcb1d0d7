"""Every module-level function and class of the package has a caller.

A name counts as used when a file under src/ or scripts/ loads it
outside its own definition: as a bare name (which covers names imported
from another module) or as an attribute of an imported orbimirror
module (`crc_mod.pair_report`). An attribute of anything else does not
count, so the `rank` attribute of a `SmithFactor` does not keep the
function `exact.rank` alive. Tests do not count either: a name that
only tests reach is dead code with a test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbimirror"

# the console-script entry point (pyproject.toml)
ENTRY_POINTS = {"main"}

# name -> why it has no caller yet. A name leaves this list when it gains
# a caller or is deleted, and the test fails until it does, so the list
# only shrinks.
ALLOWED = {
    **dict.fromkeys(
        ["rank", "integer_solve", "cone_coefficients", "cone_index",
         "primitive_collections"],
        "wrapped by perfbench/tracer.py LAYERS, whose traced pass fails "
        "when a name is missing; it goes with the benchmark change of "
        "ROADMAP item 2"),
    "open_closed_bridge": "the open/closed equality that ROADMAP item 7 "
                          "builds on; tests pin its outcome table",
    "p2_fan": "a ready-made fan that the tests build on",
    "p1_orbifold": "a ready-made fan that the tests build on",
}


def _defined_and_used() -> tuple[dict[str, str], set[str]]:
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("scripts/**/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module_aliases = {a.asname or a.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom)
                          for a in node.names if a.name in modules}
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = top.name
                if path.parent == PACKAGE:
                    defined[own] = path.stem
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in module_aliases):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return defined, used


def test_every_function_and_class_has_a_caller():
    defined, used = _defined_and_used()
    unused = {f"{defined[n]}.{n}" for n in defined.keys() - used - ENTRY_POINTS}
    allowed = {f"{defined.get(n, '?')}.{n}" for n in ALLOWED}
    assert unused == allowed, (
        f"no caller in src/ or scripts/: {sorted(unused - allowed)}; "
        f"stale allow-list entries: {sorted(allowed - unused)}")
