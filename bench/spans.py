"""In-memory spans for the traced benchmark run, recorded from outside the program.

The program binds names at import (``from .products import build_ledger``
in classify, cli and witness), so wrapping a function means rebinding that
name in every ``hustab`` module that holds it. ``patched`` does that and
restores the originals on exit.

A span records its name, its parent span, the job it belongs to, its start
and end in nanoseconds, and an optional size (the horizon of a ledger
build). A span's self time is its duration minus the part of it covered by
its children, so the self times of one job's spans sum to the duration of
the job's root span.

The per-index coefficient functions are not spanned: at ~10^6 calls per
job a timing wrapper would swamp the self times it is meant to measure.
They are counted instead, in a separate untimed pass (``counting``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

MODULES = ("sequences", "products", "classify", "dynamics", "witness", "cli")
PER_INDEX = frozenset({"sequences.coeff_at", "sequences.coeff_full"})
# Sizes recorded with a span, from the wrapped call's arguments.
SIZES = {"products.build_ledger": lambda args, kwargs: kwargs.get("horizon", args[1] if len(args) > 1 else 0)}


@dataclass
class Span:
    name: str
    parent: int  # index of the parent span, -1 for a root
    job: int
    start: int  # ns
    end: int = 0
    size: int = 0


class Recorder:
    """Collects spans of one run; ``job`` tags every span opened under it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1

    @contextmanager
    def span(self, name: str, size: int = 0):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, parent, self.job, 0, 0, size)
        self.spans.append(rec)
        self._stack.append(sid)
        rec.start = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, size_of(args, kwargs) if size_of else 0):
                return fn(*args, **kwargs)

        return traced


def _union_length(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the union of its children's intervals,
    each clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        cover = _union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        )
        out.append(s.end - s.start - cover)
    return out


def public_functions() -> dict[str, object]:
    """'module.name' -> function, for the public functions each program module defines.

    cli's cmd_* handlers are left out: main reaches them through the
    ``_COMMANDS`` table rather than by name, so their time is cli.main's.
    """
    found = {}
    for short in MODULES:
        mod = sys.modules[f"hustab.{short}"]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and not (short == "cli" and name.startswith("cmd_"))
            ):
                found[f"{short}.{name}"] = obj
    return found


@contextmanager
def patched(wrappers: dict[str, tuple[object, object]], in_defining_module: bool = True):
    """Rebind every hustab module attribute holding one of the originals to
    its replacement; restore them all on exit.

    wrappers maps 'module.name' to (original, replacement). With
    in_defining_module False the defining module keeps the original, so
    calls between its own functions are left alone.
    """
    by_id = {id(orig): (name, new) for name, (orig, new) in wrappers.items()}
    saved = []
    for modname, mod in list(sys.modules.items()):
        if modname != "hustab" and not modname.startswith("hustab."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = by_id.get(id(obj))
            if hit is None:
                continue
            name, new = hit
            if not in_defining_module and modname == f"hustab.{name.split('.')[0]}":
                continue
            saved.append((mod, attr, obj))
            setattr(mod, attr, new)
    try:
        yield
    finally:
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)


@contextmanager
def tracing(recorder: Recorder):
    """Span every public program function except the per-index ones."""
    fns = {n: f for n, f in public_functions().items() if n not in PER_INDEX}
    with patched({n: (f, recorder.wrap(n, f)) for n, f in fns.items()}):
        yield


@contextmanager
def counting(counts: Counter):
    """Count calls of the per-index coefficient functions made from outside
    ``sequences`` (coeff_at's own call into coeff_full is not a second call)."""

    def counter(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    fns = {n: f for n, f in public_functions().items() if n in PER_INDEX}
    with patched({n: (f, counter(n, f)) for n, f in fns.items()}, in_defining_module=False):
        yield


def write(spans: list[Span], path) -> None:
    """One JSON object per span, with its self time, in recording order."""
    with open(path, "w") as f:
        for i, (s, own) in enumerate(zip(spans, self_times(spans))):
            f.write(json.dumps({"id": i, "name": s.name, "parent": s.parent, "job": s.job, "start_ns": s.start,
                                "end_ns": s.end, "self_ns": own, "size": s.size}) + "\n")


def summarize(spans: list[Span]) -> dict:
    """Totals per span name: calls, self ns, total ns, summed size; and, per
    job, the root duration against the sum of the job's self times."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0, "size": 0})
    job_self = Counter()
    job_root = {}
    for s, own in zip(spans, selfs):
        agg = by_name[s.name]
        agg["calls"] += 1
        agg["self_ns"] += own
        agg["total_ns"] += s.end - s.start
        agg["size"] += s.size
        job_self[s.job] += own
        if s.parent < 0:
            job_root[s.job] = job_root.get(s.job, 0) + s.end - s.start
    mismatched = sum(1 for j, d in job_root.items() if job_self[j] != d)
    return {"layers": dict(by_name), "jobs": len(job_root), "self_sum_mismatched_jobs": mismatched}
