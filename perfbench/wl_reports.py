"""Workload `reports`: one CLI report per op, cold.

Every op runs `pargal.cli.main` in-process on an INI config, so each
report builds its instance from text exactly as a CLI call does.  After
each op (untimed) every `lru_cache` in pargal is cleared and the garbage
collected, so the next op starts from the state a fresh CLI process has:
no op finds another op's cache entries or pays to scan them.  The mix is
fixed; the seed only shuffles its order.  Verdict fields of each `--out`
document are checked against `pinned_reports.json`, recorded at the
commit that added the benchmark.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import sys
from pathlib import Path

import pargal.cli

from harness import Op, OpFailed, WrongAnswer

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
PINNED = HERE / "pinned_reports.json"

INSTANCES = ("e0", "e1", "e2", "e3", "n1", "f4c4", "f2c6g", "f8c3")
GLOBAL = ("e0", "e3", "f2c6g")
COMMANDS = (("validate",), ("invariants",), ("galois",),
            ("cohomology", "--n", "1"), ("cohomology", "--n", "2"),
            ("cohomology", "--n", "3"), ("crossed",), ("delta-theta",),
            ("pics",), ("sequence",), ("census",))
# Quick reports run this many times per pass, every other report once: the
# median then rests on several samples of each quick report, not on one.
QUICK = {("validate",), ("invariants",), ("galois",),
         ("cohomology", "--n", "1"), ("pics",)}
QUICK_REPEATS = 3

# Left out of the timed mix, with the reason.  Each would end without a
# report, a failed op, and a workload has to be one on which no op fails.
LEFT_OUT = {
    "f8c3 cohomology --n 3": "over 300 s at the default budget: the H^3 "
                             "lex-least scan over |C^2| = 5,764,801 cochains "
                             "(ROADMAP item 3)",
    "f8c3 sequence": "over 300 s, same H^3 scan (ROADMAP item 3)",
    "n1 delta-theta": "exit 2 by design: N1 is not a Galois extension",
    "n1 sequence": "exit 2 by design: N1 is not a Galois extension",
    "f2c6g delta-theta": "exit 1 with a false defect: the regular "
                         "representation is undecided (ROADMAP item 4); "
                         "run after the timed part as a probe",
}
PROBE = ("f2c6g", ("delta-theta",))
# C6 acting globally on GF(2)^6 is Galois: Delta(Theta) = M_6(GF(2))
PROBE_MATRIX_SIZE = 6


def op_key(inst: str, cmd: tuple[str, ...]) -> str:
    return " ".join((inst,) + cmd)


def reports() -> list[tuple[str, tuple[str, ...]]]:
    """Every report of the mix, once."""
    return [(inst, cmd) for inst in INSTANCES for cmd in COMMANDS
            if (cmd != ("census",) or inst in GLOBAL)
            and op_key(inst, cmd) not in LEFT_OUT]


def mix() -> list[tuple[str, tuple[str, ...]]]:
    """One pass: every report, the quick ones QUICK_REPEATS times."""
    return [(inst, cmd) for inst, cmd in reports()
            for _ in range(QUICK_REPEATS if cmd in QUICK else 1)]


def verdict(doc: dict) -> dict:
    """The fields of an --out document that carry the answer."""
    cmd, rep = doc["command"], doc["report"]
    out = {"exit": doc["exit"]}
    if cmd == "validate":
        out["ok"] = rep["ok"]
    elif cmd == "invariants":
        out["invariant_order"] = rep["invariant_order"]
    elif cmd == "galois":
        out["galois"] = rep["galois"]
        out["conclusive"] = rep.get("conclusive", True)
    elif cmd == "cohomology":
        for k in ("n", "z_order", "b_order", "h_order", "invariant_factors"):
            out[k] = rep[k]
    elif cmd == "crossed":
        out["assoc_ok"] = rep["assoc"]["ok"]
    elif cmd == "delta-theta":
        out["matrix_size"] = rep["matrix_size"]
    elif cmd == "pics":
        out["classes"] = len(rep["classes"])
        out["z1_cocycles"] = len(rep["z1_cocycles"])
    elif cmd == "sequence":
        out["consistent"] = rep["consistent"]
    elif cmd == "census":
        out["corners"] = [[c["e"], c["order"], c["galois"].split()[0],
                           c["h1"], c["h2"]] for c in rep["corners"]]
    return out


def run_cli(inst: str, cmd: tuple[str, ...], out_path: Path) -> int:
    """Run one report; out_path then holds its document if the CLI wrote
    one, which it does whenever the command ran to a verdict, whatever
    the exit code."""
    out_path.unlink(missing_ok=True)
    argv = list(cmd) + ["--config", str(CONFIGS / f"{inst}.ini"),
                        "--out", str(out_path)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return pargal.cli.main(argv)


def fresh_process_state() -> None:
    """Drop what earlier reports left in pargal's caches, as a new process."""
    for name, mod in list(sys.modules.items()):
        if name == "pargal" or name.startswith("pargal."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


class Reports:
    name = "reports"
    whole_passes = True

    def __init__(self, out_dir: Path):
        self.out_path = out_dir / "report.json"

    def setup(self, seed: int) -> None:
        self.pinned = json.loads(PINNED.read_text())
        order = mix()
        random.Random(seed).shuffle(order)
        self.ops = [self._op(inst, cmd) for inst, cmd in order]
        # warm the argparse/json paths on the smallest instance
        self.out_path.parent.mkdir(parents=True, exist_ok=True)
        warm = self._op("n1", ("validate",))
        warm.check(warm.fn())
        fresh_process_state()

    def _op(self, inst: str, cmd: tuple[str, ...]) -> Op:
        key = op_key(inst, cmd)
        expected = self.pinned[key]

        def fn():
            code = run_cli(inst, cmd, self.out_path)
            if not self.out_path.exists():
                raise OpFailed(f"exit {code}")
            return code

        def check(code):
            got = verdict(json.loads(self.out_path.read_text()))
            if got != expected or code != got["exit"]:
                raise WrongAnswer(f"{key}: exit {code}, got {got}, "
                                  f"pinned {expected}")

        return Op(key, fn, check, fresh_process_state)

    def trace_ops(self) -> list[Op]:
        return self.ops   # one pass

    def input_line(self) -> str:
        return (f"{len(self.ops)} reports per pass ({len(reports())} distinct "
                f"over {len(INSTANCES)} INI instances x {len(COMMANDS)} "
                f"commands, quick ones {QUICK_REPEATS} times); left out: "
                + "; ".join(f"{k} ({v})" for k, v in LEFT_OUT.items()))

    def probe(self) -> str:
        """Run the known-defect op once, untimed, and say how it ended."""
        inst, cmd = PROBE
        code = run_cli(inst, cmd, self.out_path)
        if self.out_path.exists():
            got = verdict(json.loads(self.out_path.read_text()))
            if (code, got) != (0, {"exit": 0,
                                   "matrix_size": PROBE_MATRIX_SIZE}):
                raise WrongAnswer(f"{op_key(inst, cmd)}: exit {code}, got "
                                  f"{got}, expected exit 0 and matrix_size "
                                  f"{PROBE_MATRIX_SIZE}")
            return f"probe {op_key(inst, cmd)}: exit 0, M_{PROBE_MATRIX_SIZE}"
        return (f"probe {op_key(inst, cmd)}: exit {code} "
                f"(known defect, ROADMAP item 4)")
