"""Span tracing from outside the program.

`Tracer.install` replaces the public functions of each `pargal` module by
wrappers that record a span (layer, function, start, end, parent span, op
id).  A function imported by name into another module (`sequence`, `cli`
and `crossed` do this) is patched there too, so every call path is seen.
Spans stay in memory, in flat arrays, until `write` is called at the end
of the run.  A layer's self time is its spans' time minus the time of
their direct child spans.

Counters ride on the same wrappers: they read the arguments and results
of calls the benchmark can observe from outside (cochains scanned by the
enumeration engine, monomial triples checked, Smith normal form sizes).
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("finring", "groups", "intmat", "partial_action", "cohomology",
          "galois", "crossed", "picsemi", "sequence", "config", "cli")

# Leaf helpers called from the innermost scan loops.  A wrapper there would
# cost more than the call, so their time counts as the caller's self time.
UNTRACED = {("cohomology", "corner_idem"), ("cohomology", "positions")}

BENCH = "bench"  # the benchmark's own layer: op roots and counter hooks


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []   # name id -> (layer, fn)
        self._name_ids: dict[tuple[str, str], int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("l")
        self._stack: list[int] = []
        self._op_id = -1
        self.enabled = False
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._orig: dict[str, object] = {}

    # ------------------------------------------------------------ spans

    def _name_id(self, layer: str, fn: str) -> int:
        key = (layer, fn)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int, label: str):
        """Root span of one op; its self time is the benchmark's own."""
        self._op_id = op_id
        idx = self._open(self._name_id(BENCH, "op:" + label))
        try:
            yield
        finally:
            self._close(idx)
            # a wall-cap alarm can land between the appends of one span:
            # cut every column back to the spans that were fully opened
            n = min(len(self.start), len(self.end), len(self.parent),
                    len(self.op), len(self.name))
            for col in (self.start, self.end, self.parent, self.op, self.name):
                del col[n:]
            self._stack.clear()

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # ------------------------------------------------------------ patching

    def _wrap(self, layer: str, fname: str, fn):
        nid = self._name_id(layer, fname)
        hook = _HOOKS.get((layer, fname))
        hits = getattr(fn, "cache_info", None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = hits().hits if hits is not None else 0
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.counts[layer + ".calls"] += 1
            tracer.counts[layer + "." + fname + ".s"] += (
                tracer.end[idx] - tracer.start[idx])
            if hook is not None:
                cached = hits is not None and hits().hits != before
                h = tracer._open(tracer._name_id(BENCH, "hook"))
                try:
                    hook(tracer, args, kwargs, out, cached)
                finally:
                    tracer._close(h)
            return out

        if hits is not None:   # keep lru_cache controls reachable
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module("pargal." + layer)
            for fname, obj in list(vars(mod).items()):
                if (fname.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or (layer, fname) in UNTRACED):
                    continue
                self._orig[layer + "." + fname] = obj
                wrappers[id(obj)] = (obj, self._wrap(layer, fname, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "pargal" and not modname.startswith("pargal."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def original(self, qualname: str):
        return self._orig[qualname]

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, float]:
        n = len(self.start)
        # a span cut short by the wall cap keeps end 0.0: count it as empty
        dur = [max(self.end[i] - self.start[i], 0.0) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Counter = Counter()
        for i in range(n):
            out[self.names[self.name[i]][0]] += dur[i] - child[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("span,layer,function,start_s,end_s,parent,op\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                layer, fname = self.names[self.name[i]]
                fh.write(f"{i},{layer},{fname},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},"
                         f"{self.op[i]}\n")


# ---------------------------------------------------------------- counters

def _cohomology_group(tr: Tracer, args, kwargs, out, cached) -> None:
    tr.counts["cohomology.group_calls"] += 1
    if cached:
        return  # no work was done
    tr.counts["cohomology.results"] += 1
    if out.lex_least:
        tr.counts["cohomology.lex_least"] += 1
    if out.n >= 1 and (out.engine == "enumerate" or out.lex_least):
        size = tr.original("cohomology.cochain_space_size")
        action = args[0] if args else kwargs["action"]
        tr.counts["cohomology.scan_cochains"] += size(action, out.n - 1)


def _coboundary(tr: Tracer, args, kwargs, out, cached) -> None:
    tr.counts["cohomology.coboundary_calls"] += 1


def _algebra(tr: Tracer, args, kwargs, out, cached) -> None:
    tr.counts["crossed.assoc_triples"] += out.assoc.triples
    tr.counts["crossed.sampled"] += int(out.assoc.sampled)


def _snf(tr: Tracer, args, kwargs, out, cached) -> None:
    mat = args[0] if args else kwargs["mat"]
    rows = len(mat)
    tr.counts["intmat.snf_calls"] += 1
    tr.counts["intmat.snf_cells"] += rows * (len(mat[0]) if rows else 0)


def _certificate(tr: Tracer, args, kwargs, out, cached) -> None:
    tr.counts["galois.certificate_calls"] += 1
    if getattr(out, "conclusive", True) is False:
        tr.counts["galois.undecided"] += 1


def _validate(tr: Tracer, args, kwargs, out, cached) -> None:
    tr.counts["partial_action.validate_calls"] += 1


_HOOKS = {
    ("cohomology", "cohomology_group"): _cohomology_group,
    ("cohomology", "coboundary"): _coboundary,
    ("crossed", "crossed_product"): _algebra,
    ("crossed", "skew_group_ring"): _algebra,
    ("crossed", "delta_theta"): _algebra,
    ("intmat", "smith_normal_form"): _snf,
    ("galois", "find_certificate"): _certificate,
    ("partial_action", "validate"): _validate,
}


def layer_metrics(tr: Tracer, traced_wall: float, overhead: float) -> dict:
    """Per-layer metrics, as {name: (value, unit)}."""
    selfs = tr.self_times()
    c = tr.counts

    def st(layer):
        return selfs.get(layer, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_total = sum(v for k, v in selfs.items() if k != BENCH)
    m = {
        "cohomology.self_s": (st("cohomology"), "s"),
        "cohomology.group_calls": (c["cohomology.group_calls"], "count"),
        "cohomology.scan_cochains": (c["cohomology.scan_cochains"], "count"),
        "cohomology.scan_per_s": (ratio(c["cohomology.scan_cochains"],
                                        st("cohomology")), "1/s"),
        "cohomology.lex_least_frac": (ratio(c["cohomology.lex_least"],
                                            c["cohomology.results"]), "ratio"),
        "cohomology.coboundary_calls": (c["cohomology.coboundary_calls"],
                                        "count"),
        "cohomology.coboundary_us": (
            1e6 * ratio(c["cohomology.coboundary.s"],
                        c["cohomology.coboundary_calls"]), "us"),
        "crossed.self_s": (st("crossed"), "s"),
        "crossed.assoc_triples": (c["crossed.assoc_triples"], "count"),
        "crossed.triples_per_s": (ratio(c["crossed.assoc_triples"],
                                        st("crossed")), "1/s"),
        "crossed.sampled": (c["crossed.sampled"], "count"),
        "intmat.self_s": (st("intmat"), "s"),
        "intmat.snf_calls": (c["intmat.snf_calls"], "count"),
        "intmat.snf_cells": (c["intmat.snf_cells"], "count"),
        "groups.self_s": (st("groups"), "s"),
        "groups.calls": (c["groups.calls"], "count"),
        "galois.self_s": (st("galois"), "s"),
        "galois.certificate_calls": (c["galois.certificate_calls"], "count"),
        "galois.undecided": (c["galois.undecided"], "count"),
        "partial_action.self_s": (st("partial_action"), "s"),
        "partial_action.validate_calls": (c["partial_action.validate_calls"],
                                          "count"),
        "partial_action.validate_us": (
            1e6 * ratio(c["partial_action.validate.s"],
                        c["partial_action.validate_calls"]), "us"),
        "finring.self_s": (st("finring"), "s"),
        "finring.calls": (c["finring.calls"], "count"),
        "picsemi.self_s": (st("picsemi"), "s"),
        "sequence.self_s": (st("sequence"), "s"),
        "cli.self_s": (st("cli"), "s"),
        "config.self_s": (st("config"), "s"),
        "bench.self_s": (traced_wall - layer_total, "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    return m
