"""Importing the package generates no code: its records are named tuples
and small plain classes, not dataclasses, whose class creation builds
their methods from source text and loads `inspect`."""

import json
import os
import subprocess
import sys
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


def test_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, check=True)
    seen = json.loads(proc.stdout)
    assert Path(seen["file"]).resolve().parent == Path(SRC) / "orbimirror"
    assert "orbimirror.cli" in seen["added"]
    assert not {"dataclasses", "inspect"} & set(seen["added"])
