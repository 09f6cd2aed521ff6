#!/usr/bin/env python3
"""Record the verdict table that the `reports` workload checks against.

    python3 perfbench/pin_reports.py

Runs every report of the mix once and writes the verdict fields of its
--out document to perfbench/pinned_reports.json.  Run it only on a commit
whose answers are trusted: the benchmark treats any later difference as a
wrong answer.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wl_reports import PINNED, op_key, reports, run_cli, verdict  # noqa: E402


def main() -> int:
    out_path = ROOT / ".bench_out" / "pin.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    table = {}
    for inst, cmd in reports():
        code = run_cli(inst, cmd, out_path)
        if code != 0:
            print(f"{op_key(inst, cmd)}: exit {code}", file=sys.stderr)
            return 1
        table[op_key(inst, cmd)] = verdict(json.loads(out_path.read_text()))
        print(op_key(inst, cmd), table[op_key(inst, cmd)], flush=True)
    PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
