"""Byte-identity of the CLI outputs on the bundled fans.

`cli_outputs.json` pins the exit code and the sha256 of stdout and of
stderr of every run in `RUNS`: the fan commands and the series commands
at order 6, on each bundled fan, in text, JSON and CSV. `crc` and
`specialize` are left out, since their floats come from the platform's
libm. The file is rewritten only by

    python tests/test_cli_outputs.py record

and only when an output is meant to change.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from orbimirror.cli import main  # noqa: E402

HERE = Path(__file__).resolve().parent
FANS = HERE.parent / "fans"
GOLDEN = HERE / "cli_outputs.json"
COMMANDS = (("validate",), ("box",), ("check",), ("xbar",),
            ("hori-vafa", "--order", "6"), ("mirror-map", "--order", "6"),
            ("superpotential", "--order", "6"), ("open-gw", "--order", "6"))
FORMATS = ("text", "json", "csv")
# run name -> (command, fan name, the flags after the fan path)
RUNS = {" ".join((cmd, fan, *flags, "--format", fmt)): (cmd, fan, (*flags, "--format", fmt))
        for (cmd, *flags) in COMMANDS
        for fan in sorted(p.stem for p in FANS.glob("*.json"))
        for fmt in FORMATS}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(name: str) -> dict:
    """The exit code and the sha256 of stdout and stderr of one run,
    in-process."""
    cmd, fan, flags = RUNS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cmd, str(FANS / f"{fan}.json"), *flags])
    return {"exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def test_the_golden_file_names_every_run():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_is_byte_identical(name):
    assert run_digest(name) == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("argv", [[], ["recrd"], ["record", "extra"]])
def test_only_record_writes_the_golden_file(argv, capsys):
    before = GOLDEN.read_bytes()
    assert cli(argv) == 2
    assert "usage" in capsys.readouterr().err
    assert GOLDEN.read_bytes() == before


def cli(argv: list[str]) -> int:
    if argv != ["record"]:
        print(f"usage: python {Path(__file__).name} record", file=sys.stderr)
        return 2
    digests = {name: run_digest(name) for name in sorted(RUNS)}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} runs in {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
