"""Every module-level function and class of the package has a caller.

A name counts as used when a file under src/ or scripts/ loads it
outside its own definition: as a bare name (which covers names imported
from another module) or as an attribute of an imported orbimirror
module (`crc_mod.pair_report`). An attribute of anything else does not
count, so the `rank` attribute of a `SmithFactor` does not keep the
function `exact.rank` alive. Tests do not count either: a name that
only tests reach is dead code with a test.

A method or property of a package class, other than a dunder, counts as
used when an attribute of its name is loaded anywhere under src/ or
scripts/, on any object, since the type of the object is not known.

A module-level import in src/ or scripts/ counts as used when its file
loads the name it binds.
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

# file:name of an import -> why its file does not use it
UNUSED_IMPORTS = {
    "src/orbimirror/fan.py:solve_unique":
        "perfbench/test_perfbench.py checks that the tracer restores this "
        "module's binding of it",
}


def _sources() -> list[Path]:
    return sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("scripts/**/*.py"))


def _defined_and_used() -> tuple[dict[str, str], set[str]]:
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in _sources():
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


def _members_and_attributes() -> tuple[dict[str, str], set[str]]:
    members: dict[str, str] = {}
    loaded: set[str] = set()
    for path in _sources():
        tree = ast.parse(path.read_text(), str(path))
        if path.parent == PACKAGE:
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef):
                    for node in cls.body:
                        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                                and not node.name.startswith("__")):
                            members[f"{path.stem}.{cls.name}.{node.name}"] = node.name
        loaded.update(node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load))
    return members, loaded


def test_every_method_and_property_has_a_caller():
    members, loaded = _members_and_attributes()
    unused = sorted(q for q, name in members.items() if name not in loaded)
    assert not unused, f"no attribute load in src/ or scripts/: {unused}"


def test_every_import_is_used():
    unused = set()
    for path in _sources():
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for top in tree.body:
            if (not isinstance(top, (ast.Import, ast.ImportFrom))
                    or getattr(top, "module", None) == "__future__"):
                continue
            for alias in top.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    unused.add(f"{path.relative_to(ROOT)}:{name}")
    assert unused == UNUSED_IMPORTS.keys(), (
        f"imported and not used: {sorted(unused - UNUSED_IMPORTS.keys())}; "
        f"stale entries: {sorted(UNUSED_IMPORTS.keys() - unused)}")
