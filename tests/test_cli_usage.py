"""Pinned bytes of the argument parser: the help of the top level and of
each of the 11 leaf commands, and four usage errors, with their stdout,
stderr and exit code at ``COLUMNS=80``.

``cli_usage_pin.json`` was recorded from the parser that declared the
common flags on each leaf separately, before one parent parser took
them over; a change to a flag, a help line or a usage message shows
here.
"""

import json
from pathlib import Path

import pytest

from locfusion.cli import main

PIN = Path(__file__).with_name("cli_usage_pin.json")

LEAVES = (["group", "info"], ["locality", "build"], ["locality", "validate"],
          ["theorem1"], ["theorem2"], ["restriction"], ["fusion", "build"],
          ["fusion", "saturate-check"], ["product-ed"], ["verify-ed"],
          ["suite"])

ARGVS = ([["--help"]] + [leaf + ["--help"] for leaf in LEAVES] + [
    [],                                                # no command
    ["suite"],                                         # no descriptor
    ["group", "info", "group-8", "--group-cap", "0"],
    ["theorem1", "instance-b", "--max-word-len", "3"],
])


def usage(argv, capsys, monkeypatch):
    """Stdout, stderr and exit code of the parser on ``argv``."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return {"argv": argv, "code": exc.value.code, "stdout": out,
            "stderr": err}


def test_pin_covers_every_case():
    assert [row["argv"] for row in json.loads(PIN.read_text())] == ARGVS


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_parser_bytes_are_pinned(argv, capsys, monkeypatch):
    pinned = {tuple(row["argv"]): row for row in json.loads(PIN.read_text())}
    assert usage(argv, capsys, monkeypatch) == pinned[tuple(argv)]
