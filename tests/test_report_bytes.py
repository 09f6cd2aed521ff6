"""Every CLI report on the INI configs of perfbench/configs, byte for byte.

Each case runs ``pargal.cli.main`` in-process from the repository root,
with the config given as the relative path ``perfbench/configs/<name>.ini``
so the instance label does not depend on where the checkout lives, and
hashes (exit code, stdout, stderr, ``--out`` document).  The hashes in
``report_bytes.json`` were recorded from the code before the instance
set-up was vectorized; a change that moves any byte of any report fails
here.  Caches are cleared between cases, as a fresh process would find
them.

Re-record (only when a report is meant to change)::

    PYTHONPATH=src python tests/test_report_bytes.py --record
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from pargal import cli

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "report_bytes.json"

INSTANCES = ("e0", "e1", "e2", "e3", "n1", "f4c4", "f2c6g", "f8c3")
GLOBAL = ("e0", "e3", "f2c6g")
COMMANDS = (("validate",), ("invariants",), ("galois",),
            ("cohomology", "--n", "1"), ("cohomology", "--n", "2"),
            ("cohomology", "--n", "3"), ("crossed",), ("delta-theta",),
            ("pics",), ("sequence",), ("census",))
BUDGETS = ((), ("--budget", "10"))


def cases() -> list[tuple[str, tuple[str, ...]]]:
    """83 reports (census only on global actions), each uncapped and
    capped at 10."""
    return [(inst, cmd + budget)
            for inst in INSTANCES for cmd in COMMANDS
            if cmd != ("census",) or inst in GLOBAL
            for budget in BUDGETS]


def case_key(inst: str, cmd: tuple[str, ...]) -> str:
    return " ".join((inst,) + cmd)


def _clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "pargal" or name.startswith("pargal."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def report_hash(inst: str, cmd: tuple[str, ...], out_path: Path) -> str:
    """sha256 of one report's exit code, stdout, stderr and --out text."""
    out_path.unlink(missing_ok=True)
    argv = list(cmd) + ["--config", f"perfbench/configs/{inst}.ini",
                        "--out", str(out_path)]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    _clear_caches()
    try:
        os.chdir(ROOT)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    doc = out_path.read_text() if out_path.exists() else None
    blob = json.dumps([code, out.getvalue(), err.getvalue(), doc])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pinned_cases_match_the_case_list(pinned):
    assert sorted(pinned) == sorted(case_key(i, c) for i, c in cases())
    assert len(pinned) == 166


@pytest.mark.parametrize("inst,cmd", cases(),
                         ids=[case_key(i, c) for i, c in cases()])
def test_report_bytes(inst, cmd, pinned, tmp_path):
    assert report_hash(inst, cmd, tmp_path / "report.json") \
        == pinned[case_key(inst, cmd)]


if __name__ == "__main__":
    import tempfile
    import time

    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for inst, cmd in cases():
            t0 = time.perf_counter()
            got[case_key(inst, cmd)] = report_hash(inst, cmd,
                                                   Path(tmp) / "report.json")
            print(f"{time.perf_counter() - t0:7.3f} s  {case_key(inst, cmd)}",
                  file=sys.__stderr__)
    PINNED.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
