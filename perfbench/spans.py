"""Span recorder for the traced benchmark pass.

The recorder wraps the public entry points of each kfplab layer from
outside the package (nothing under src/ changes), keeps one span per
call in memory, and folds the spans into the per-layer metrics.

A span has a name, a parent, a start and an end (perf_counter seconds)
and a few counts measured at the boundary.  Each thread keeps its own
stack of open spans, because the ensemble runs its members in a thread
pool; a span opened in a thread whose stack is empty hangs under the
open root span, so the CLI's own time excludes work done in its pool.
A span's self time is its length minus the part of it that its child
spans cover (the union, since pool spans overlap).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts", "label")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.counts = {}
        self.label = None

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "counts": self.counts,
                "label": self.label}


class Recorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = Span(len(self.spans), None if parent is None else parent.id,
                        name)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """Span that adopts the top-level spans of every thread."""
        with self.span(name) as span:
            self._root = span
            try:
                yield span
            finally:
                self._root = None


def _points(t, x, v):
    return int(np.broadcast(np.asarray(t), np.asarray(x), np.asarray(v)).size)


def _entry_points(rec: Recorder):
    """(owner, attribute, wrapper factory) for every traced entry point."""
    import kfplab.cli
    import kfplab.experiments
    import kfplab.kernel
    from kfplab.geometry import Cylinder
    from kfplab.solver.coefficients import CoefficientField
    from kfplab.solver.grid import GridFunction

    def coefficients(fn):
        @functools.wraps(fn)
        def wrapper(self, t, x, v):
            with rec.span("coefficients") as span:
                span.counts["points"] = _points(t, x, v)
                return fn(self, t, x, v)
        return wrapper

    def contains(fn):
        @functools.wraps(fn)
        def wrapper(self, t, x, v):
            with rec.span("geometry.contains") as span:
                span.counts["points"] = _points(t, x, v)
                return fn(self, t, x, v)
        return wrapper

    def mask(fn):
        @functools.wraps(fn)
        def wrapper(self, cyl):
            with rec.span("grid.mask") as span:
                out = fn(self, cyl)
                span.counts["cells"] = int(out.size)
                span.counts["hits"] = int(np.count_nonzero(out))
                return out
        return wrapper

    def solve(fn):
        @functools.wraps(fn)
        def wrapper(f0, coef, box, nx, nv, nt, **kwargs):
            with rec.span("march") as span:
                span.counts["cell_steps"] = int(nx) * int(nv) * int(nt)
                out = fn(f0, coef, box, nx, nv, nt, **kwargs)
                span.counts["stored_bytes"] = int(out.values.nbytes)
                return out
        return wrapper

    def checker(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span("checks") as span:
                report = fn(*args, **kwargs)
                span.label = report.statement_id
                return report
        return wrapper

    def weak(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span("weak") as span:
                report = fn(*args, **kwargs)
                span.counts["pairs"] = int(report.n_pairs)
                return report
        return wrapper

    def kernel_g(fn):
        @functools.wraps(fn)
        def wrapper(t, x, v, d=1):
            with rec.span("kernel.g") as span:
                span.counts["points"] = _points(t, x, v)
                return fn(t, x, v, d)
        return wrapper

    def convolve(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span("kernel.convolve"):
                return fn(*args, **kwargs)
        return wrapper

    points = [(CoefficientField, name, coefficients)
              for name in ("diffusion", "drift", "source")]
    points += [(GridFunction, "mask", mask), (Cylinder, "contains", contains),
               (kfplab.cli, "solve", solve),
               (kfplab.experiments, "solve", solve),
               (kfplab.cli, "weak_residual", weak),
               (kfplab.kernel, "kolmogorov_g", kernel_g),
               (kfplab.experiments, "convolve_representation", convolve)]
    for module in (kfplab.cli, kfplab.experiments):
        points += [(module, name, checker) for name in vars(module)
                   if name.startswith("check_")]
    return points


@contextlib.contextmanager
def traced(rec: Recorder):
    """Patch every entry point to record into rec; restore on exit."""
    saved = []
    try:
        for owner, name, wrap in _entry_points(rec):
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, wrap(original))
        yield rec
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def covered(span, children) -> float:
    """Length of the union of the children's intervals inside span."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    total = 0.0
    lo = hi = None
    for a, b in intervals:
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def check_metric_name(statement_id: str) -> str:
    """'gain_integrability[p=2.4]' -> 'checks.gain_integrability.p2.4.s'."""
    sid = statement_id.replace("[", ".").replace("=", "").replace("]", "")
    return f"checks.{sid}.s"


def layer_metrics(spans) -> dict:
    """Per-layer counts and thread-seconds from one traced run."""
    children = defaultdict(list)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def calls(name):
        return len(by_name[name])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def self_s(name):
        return sum(s.end - s.start - covered(s, children[s.id])
                   for s in by_name[name])

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    cell_steps = count("march", "cell_steps")
    march_self = self_s("march")
    mask_cells = count("grid.mask", "cells")
    pairs = count("weak", "pairs")
    weak_self = self_s("weak")
    out = {
        "coefficients.calls": calls("coefficients"),
        "coefficients.points": count("coefficients", "points"),
        "coefficients.self_s": self_s("coefficients"),
        "march.cell_steps": cell_steps,
        "march.self_s": march_self,
        "march.ns_per_cell_step": ratio(march_self, cell_steps, 1e9),
        "march.stored_mb": count("march", "stored_bytes") / 1e6,
        "grid.mask.calls": calls("grid.mask"),
        "grid.mask.cells": mask_cells,
        "grid.mask.self_s": self_s("grid.mask"),
        "grid.mask.hit_ratio": ratio(count("grid.mask", "hits"), mask_cells),
        "geometry.contains.calls": calls("geometry.contains"),
        "geometry.contains.points": count("geometry.contains", "points"),
        "geometry.contains.self_s": self_s("geometry.contains"),
        "checks.calls": calls("checks"),
        "checks.self_s": self_s("checks"),
        "weak.calls": calls("weak"),
        "weak.pairs": pairs,
        "weak.self_s": weak_self,
        "weak.us_per_pair": ratio(weak_self, pairs, 1e6),
        "kernel.g.calls": calls("kernel.g"),
        "kernel.g.points": count("kernel.g", "points"),
        "kernel.g.self_s": self_s("kernel.g"),
        "kernel.convolve.self_s": self_s("kernel.convolve"),
        "cli.self_s": self_s("cli"),
    }
    for span in by_name["checks"]:
        name = check_metric_name(span.label)
        out[name] = out.get(name, 0.0) + span.end - span.start
    return out
