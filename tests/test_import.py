"""Importing the package generates no code: its records are named tuples
and small plain classes, not dataclasses, whose class creation builds
their methods from source text and loads `inspect`; and their
annotations are evaluated types, not strings that `typing` compiles into
a `ForwardRef` per field."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import orbimirror

SRC = str(Path(orbimirror.__file__).resolve().parent.parent)

PROBE = """
import json, sys
before = set(sys.modules)
import orbimirror.cli
print(json.dumps({"file": orbimirror.cli.__file__,
                  "added": sorted(set(sys.modules) - before)}))
"""


# perfbench/run.py imports the package afresh before every pass. An
# evaluated annotation that subscripts a `typing` generic with a package
# class (`Sequence[PuiseuxSeries]`, `Optional[dict[Vec, BoxElement]]`)
# enters typing's cache, which then keeps the class alive, and through
# its methods, if it has any, its whole earlier module. The heap that
# the benchmark's gc.collect() before each job walks grows with them.
REIMPORT_PROBE = """
import gc, importlib, json, sys
for _ in range(4):
    for name in [k for k in sys.modules if k.startswith("orbimirror")]:
        del sys.modules[name]
    importlib.import_module("orbimirror.cli")
gc.collect()
objects = gc.get_objects()
print(json.dumps({
    "modules": sorted(o["__name__"] for o in objects
                      if isinstance(o, dict) and "__builtins__" in o
                      and str(o.get("__name__")).startswith("orbimirror")),
    "classes": sorted(f"{o.__module__}.{o.__qualname__}" for o in objects
                      if isinstance(o, type)
                      and o.__module__.startswith("orbimirror"))}))
"""


def _probe(code: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_import_loads_neither_dataclasses_nor_inspect():
    seen = _probe(PROBE)
    assert Path(seen["file"]).resolve().parent == Path(SRC) / "orbimirror"
    assert "orbimirror.cli" in seen["added"]
    assert not {"dataclasses", "inspect"} & set(seen["added"])


def test_record_annotations_are_evaluated_types():
    found = []
    for info in pkgutil.iter_modules(orbimirror.__path__):
        module = importlib.import_module(f"orbimirror.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                found += [f"{module.__name__}.{cls.__name__}.{field}"
                          for field, hint in vars(cls).get("__annotations__", {}).items()
                          if isinstance(hint, (str, typing.ForwardRef))]
    assert not found


def test_reimport_leaves_no_earlier_module_alive():
    alive = _probe(REIMPORT_PROBE)["modules"]
    assert len(alive) == len(set(alive)), alive


def test_reimport_leaves_no_earlier_class_alive():
    alive = _probe(REIMPORT_PROBE)["classes"]
    assert alive and len(alive) == len(set(alive)), alive
