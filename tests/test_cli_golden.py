"""Help, version and usage-error text of the command line, byte for byte.

Each case runs ``pargal.cli.main`` in-process at a fixed 80-column width
and compares (exit code, stdout, stderr) with ``cli_golden.json``, which
was recorded from the parser that built all nine subcommands on every
call.  Building only the requested subcommand must not move a byte.

Re-record (only when the command line is meant to change)::

    COLUMNS=80 PYTHONPATH=src python tests/test_cli_golden.py --record
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from pargal import cli

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

COMMANDS = ("validate", "invariants", "galois", "cohomology", "crossed",
            "delta-theta", "pics", "sequence", "census")
CASES = (
    (), ("-h",), ("--help",), ("--version",),
    *((cmd, "-h") for cmd in COMMANDS),
    ("-h", "crossed"), ("--version", "crossed"), ("crossed", "--version"),
    ("bogus",), ("crosed", "--fixture", "E1"), ("--fixture", "E1", "crossed"),
    ("cohomology", "--fixture", "E1"),
    ("cohomology", "--fixture", "E1", "--n", "5"),
    ("validate", "--fixture", "E1", "--engine", "bad"),
    ("galois", "--fixture", "E1", "--max-m", "x"),
    ("crossed", "--fixture", "E1", "--bogus"),
    ("validate",), ("validate", "--fixture", "E1", "--config", "x.ini"),
)


def case_key(argv: tuple[str, ...]) -> str:
    return " ".join(("pargal",) + argv)


def run(argv: tuple[str, ...]) -> list:
    """[exit code, stdout, stderr] of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_cases_match_the_case_list(golden):
    assert sorted(golden) == sorted(case_key(c) for c in CASES)


@pytest.mark.parametrize("argv", CASES, ids=[case_key(c) for c in CASES])
def test_cli_text(argv, golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv) == golden[case_key(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps({case_key(c): run(c) for c in CASES},
                                 indent=1, sort_keys=True) + "\n")
