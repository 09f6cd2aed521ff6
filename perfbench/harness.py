"""Op runner shared by the workloads.

An op is one timed call into pargal.  It either completes (and its answer
is then checked outside the timed region) or fails: it ends without an
answer (OpFailed, a budget, defect or precondition refusal) or reaches the
per-op wall cap.  A wrong answer is not a failure: WrongAnswer, raised by
the call or by the check, stops the run.
"""
from __future__ import annotations

import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from pargal.errors import BudgetError, DefectError, PreconditionError

OP_CAP_S = 40.0        # per-op wall cap, enforced with SIGALRM
RUN_HARD_STOP_S = 140  # no op starts this long after the timed part began


class WrongAnswer(Exception):
    """An op completed with an answer that disagrees with the expected one."""


class OpFailed(Exception):
    """An op ended without an answer (a report that wrote no document)."""


class _OpTimeout(BaseException):
    # BaseException so that no handler inside pargal swallows it
    pass


def _on_alarm(signum, frame):
    raise _OpTimeout()


@dataclass
class Op:
    label: str                          # groups latencies in the output
    fn: Callable[[], Any]               # the timed call
    check: Callable[[Any], None]        # raises WrongAnswer; untimed
    cleanup: Callable[[], None] | None = None   # untimed, after every run


@dataclass
class Sample:
    label: str
    seconds: float
    failure: str | None


def run_op(op: Op, paused=None) -> Sample:
    """Time op.fn under the wall cap, then check its answer.

    `paused` is a context manager factory that suspends tracing while the
    answer is checked, so checks never show up as layer time.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    failure = None
    out = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            out = op.fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _OpTimeout:
        failure = "timeout"
    except WrongAnswer:
        raise
    except OpFailed as exc:
        failure = str(exc)
    except BudgetError:
        failure = "budget"
    except DefectError:
        failure = "defect"
    except PreconditionError:
        failure = "precondition"
    except Exception:  # a crash in one op must not end the run
        traceback.print_exc(file=sys.stderr)
        failure = "error"
    seconds = time.perf_counter() - t0
    if failure is None:
        if paused is None:
            op.check(out)
        else:
            with paused():
                op.check(out)
    if op.cleanup is not None:
        op.cleanup()
    return Sample(op.label, seconds, failure)


def measure(ops: list[Op], seconds: float, whole_passes: bool,
            aside: Callable[[], None], every: float
            ) -> tuple[list[Sample], float]:
    """Run ops in order, cycling, until `seconds` have elapsed.

    With whole_passes the list is run completely each time, so every run
    measures the same multiset of ops.  `aside` is called between ops every
    `every` seconds, from the start on; its time does not count towards
    `seconds`.  Returns the samples and the wall time of the loop, without
    the time spent aside.
    """
    samples: list[Sample] = []
    t0 = time.perf_counter()
    i = 0
    away = 0.0
    next_aside = 0.0
    while True:
        elapsed = time.perf_counter() - t0 - away
        if whole_passes:
            if i % len(ops) == 0 and i and elapsed >= seconds:
                break
        elif elapsed >= seconds:
            break
        if elapsed >= next_aside:
            a0 = time.perf_counter()
            aside()
            away += time.perf_counter() - a0
            next_aside += every
        op = ops[i % len(ops)]
        if time.perf_counter() - t0 >= RUN_HARD_STOP_S:
            samples.append(Sample(op.label, 0.0, "run-deadline"))
        else:
            samples.append(run_op(op))
        i += 1
    return samples, time.perf_counter() - t0 - away


def replay(ops: list[Op], paused=None, wrap=None,
           deadline: float = float("inf")) -> list[Sample]:
    """Run the ops of the list once, in order, each inside
    `wrap(i, op.label)` when given; start none after `deadline`."""
    samples = []
    for i, op in enumerate(ops):
        if time.perf_counter() > deadline:
            break
        if wrap is None:
            samples.append(run_op(op, paused))
        else:
            with wrap(i, op.label):
                samples.append(run_op(op, paused))
    return samples


def latency_stats(samples: list[Sample]) -> dict:
    """Median and tail latency (ms) of completed ops.

    The tail percentile is the highest one that still has at least ten
    samples beyond it: with n sorted samples, the (n-10)-th one.  The tail
    latency is the mean of the ops at and beyond it, the eleven slowest.
    One op's latency moves with the machine's speed in the seconds it ran;
    the mean of eleven rests on all the time they took.
    """
    lat = sorted(s.seconds * 1e3 for s in samples if s.failure is None)
    n = len(lat)
    if n == 0:
        return {"n": 0, "p50": float("nan"), "tail": float("nan"),
                "tail_at": float("nan"), "tail_pct": 0.0, "beyond": 0}
    k = max(n - 11, 0)
    return {"n": n, "p50": statistics.median(lat),
            "tail": statistics.fmean(lat[k:]), "tail_at": lat[k],
            "tail_pct": 100.0 * (k + 1) / n, "beyond": n - 1 - k}
