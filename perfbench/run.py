#!/usr/bin/env python3
"""pargal benchmark.

    python3 perfbench/run.py --workload {reports,cochain-calls}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports pargal from its
`src/` directory, nowhere else.  The ops run in this one process, on one
thread.  Set-up time is taken in fresh interpreters (this script with
--setup-only), started one at a time between ops and waited for.

With --trace 0 the last line of standard output is a JSON object carrying
the end-to-end metrics (setup_s, ops_per_s, op_p50_ms, op_tail_ms,
peak_rss_mb).  With --trace 1 the workload's fixed trace list of ops runs
with spans recorded around every public pargal function, then again
untraced for the overhead, and the JSON carries the per-layer metrics
instead; spans are written to .bench_out/.  --seconds then plays no part.  Any wrong answer stops the run with exit 1; so
does a failed op, since every op of a workload must complete.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5          # fresh-process set-ups, spread over the timed part
SETUP_TIMEOUT_S = 60
# a traced run's untraced part starts no op later; a reports pass then
# fits twice in the run's time limit even on a slow machine
UNTRACED_DEADLINE_S = 110


def _import_pargal():
    if not (SRC / "pargal" / "__init__.py").is_file():
        sys.exit(f"error: no pargal sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import pargal
    if not Path(pargal.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: pargal imported from {pargal.__file__}, not {SRC}")


def _environment(seed: int) -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pargal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16],
            "seed": seed}


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _workload(name: str):
    if name == "reports":
        from wl_reports import Reports
        return Reports(OUT_DIR)
    from wl_cochain import CochainCalls
    return CochainCalls()


def _setup_in_fresh_process(workload: str, seed: int, reps: list) -> None:
    """Time one whole set-up, imports included, in a new interpreter,
    until SETUP_REPS are taken."""
    if len(reps) >= SETUP_REPS:
        return
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    reps.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _wrong_answer(exc) -> int:
    print(f"WRONG ANSWER: {exc}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                      "metrics": {}}))
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(description="pargal benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("reports", "cochain-calls"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    args = ap.parse_args()

    _import_pargal()
    import harness
    wl = _workload(args.workload)
    import_s = time.perf_counter() - T_START
    try:
        wl.setup(args.seed)
    except harness.WrongAnswer as exc:
        return _wrong_answer(exc)
    first_setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": first_setup_s}))
        return 0
    # the op list is the benchmark's, not the program's: keep the collector
    # from rescanning it during the timed part
    gc.collect()
    gc.freeze()

    env = _environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name}: input {wl.input_line()}")

    setup_reps: list[float] = []
    try:
        if args.trace:
            samples, metrics = _traced(wl, args)
            wall = sum(s.seconds for s in samples)
        else:
            samples, wall = harness.measure(
                wl.ops, args.seconds, wl.whole_passes,
                lambda: _setup_in_fresh_process(args.workload, args.seed,
                                                setup_reps),
                args.seconds / SETUP_REPS)
        probe = wl.probe()
    except harness.WrongAnswer as exc:
        return _wrong_answer(exc)
    if probe:
        print(probe)

    attempted = len(samples)
    failed = sum(1 for s in samples if s.failure is not None)
    stats = harness.latency_stats(samples)
    busy = sum(s.seconds for s in samples)   # op time, without checks
    by_failure = Counter(f"{s.label}:{s.failure}" for s in samples
                         if s.failure is not None)
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_reps), "s"),
            "ops_per_s": ((attempted - failed) / busy, "1/s"),
            "op_p50_ms": (stats["p50"], "ms"),
            "op_tail_ms": (stats["tail"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        print(f"setup in fresh processes: "
              + ", ".join(f"{r:.3f}" for r in setup_reps) + " s")
    fail_frac = failed / attempted if attempted else 0.0
    print(f"ops {attempted} in {wall:.3f} s, {busy:.3f} s of it in ops "
          f"({failed} failed"
          + (f": {dict(by_failure)}" if by_failure else "") + ")")
    print(f"setup in this process: imports {import_s:.3f} s, "
          f"all {first_setup_s:.3f} s")
    for label in sorted({s.label for s in samples}):
        lat = sorted(s.seconds * 1e3 for s in samples
                     if s.label == label and s.failure is None)
        if lat:
            print(f"  op {label:<24} n={len(lat):<6} "
                  f"sum={sum(lat) / 1e3:8.3f} s "
                  f"p50={statistics.median(lat):9.3f} ms "
                  f"max={lat[-1]:9.3f} ms")
    print(f"op_tail_ms is the mean latency of the {stats['beyond'] + 1} "
          f"slowest of {stats['n']} completed ops, at and beyond the "
          f"p{stats['tail_pct']:.2f} latency ({stats['tail_at']:.3f} ms)")
    print(f"  {'fail_frac':<32} {fail_frac:<14.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {_fmt(value):<14} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    if failed:
        print(f"error: {failed} ops failed; every op of a workload must "
              "complete", file=sys.stderr)
        return 1
    return 0


def _traced(wl, args):
    """Run the workload's fixed trace list traced, then untraced.

    The list does not depend on how fast the program is, so the per-layer
    counts of two commits compare.  The untraced run gives the tracing
    overhead; it stops early if the process would run out of time, and the
    overhead is then taken over the ops it ran.  Returns the traced
    samples and the per-layer metrics.
    """
    import harness
    from tracer import Tracer, layer_metrics

    ops = wl.trace_ops()
    tr = Tracer()
    tr.install()
    t0 = time.perf_counter()
    try:
        traced = harness.replay(ops, tr.paused, tr.op_span)
    finally:
        tr.uninstall()
    traced_wall = time.perf_counter() - t0
    samples = harness.replay(ops, deadline=T_START + UNTRACED_DEADLINE_S)
    path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.csv"
    tr.write(path)
    base = sum(s.seconds for s in samples)
    overhead = (sum(s.seconds for s in traced[:len(samples)]) / base
                if base else 0.0)
    m = layer_metrics(tr, traced_wall, overhead)
    selfs = tr.self_times()
    layers = sum(v for k, v in selfs.items() if k != "bench")
    print(f"traced {len(traced)} ops in {traced_wall:.3f} s; {len(tr.start)} "
          f"spans in {path.name}; overhead over the first {len(samples)} "
          f"ops, {base:.3f} s untraced")
    print(f"account: layer self {layers:.3f} s + bench spans "
          f"{selfs.get('bench', 0.0):.3f} s + outside spans "
          f"{traced_wall - sum(selfs.values()):.3f} s = {traced_wall:.3f} s")
    return traced, m


if __name__ == "__main__":
    sys.exit(main())
