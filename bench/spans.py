"""Spans around the benchmark's own calls into rossmac, kept in memory.

A span records its name, start, end, parent span, operation id and the
number of library calls it covers (several cheap calls share one span so
that the clock reads do not dominate them).  Nothing is recorded while
`enabled` is false, and `span` then returns a shared no-op context.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: list):
        self.tracer, self.rec = tracer, rec

    def __enter__(self):
        self.tracer._stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None  # id of the operation in progress
        self.spans: list[list] = []  # [name, start, end, parent, op, n]
        self.values: list[tuple] = []  # (name, value, op): counts and child-side times
        self._stack: list[int] = []

    def span(self, name: str, n: int = 1):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        return _Span(self, [name, 0.0, 0.0, parent, self.op, n])

    def value(self, name: str, v: float) -> None:
        if self.enabled:
            self.values.append((name, v, self.op))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, n in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (name, start, end, *_), c in zip(self.spans, child)]

    def per_call(self, own_op) -> dict[str, float]:
        """Median per-call self time (s) per span name, and median per value
        name.  Records whose operation satisfies `own_op` win; a name seen
        only outside them (in probes) falls back to those records."""
        own: dict[str, list] = {}
        other: dict[str, list] = {}
        for (name, _, _, _, op, n), st in zip(self.spans, self.self_times()):
            (own if own_op(op) else other).setdefault(name, []).append(st / n)
        for name, v, op in self.values:
            (own if own_op(op) else other).setdefault(name, []).append(v)
        return {k: statistics.median(own.get(k) or other[k]) for k in {*own, *other}}

    def dump(self, path, extra: dict) -> None:
        names = ("name", "start", "end", "parent", "op", "n", "self")
        spans = [dict(zip(names, (*s, st))) for s, st in zip(self.spans, self.self_times())]
        values = [dict(zip(("name", "value", "op"), v)) for v in self.values]
        with open(path, "w") as fh:
            json.dump({**extra, "spans": spans, "values": values}, fh)
