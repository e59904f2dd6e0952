"""Span recording around the public calls a workload makes.

A traced request passes a ``Tracer`` to the workload's ``run``; an untraced
one passes ``UNTRACED``, whose ``call`` is a plain call.  Spans stay in
memory and are written out once, after the run.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "counts")

    def __init__(self, id, parent, request, name):
        self.id = id
        self.parent = parent
        self.request = request
        self.name = name
        self.start = self.end = 0
        self.counts = None


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._open: list[Span] = []
        self._last: Span | None = None

    def call(self, name: str, fn, *args):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self.request, name)
        self.spans.append(span)
        self._open.append(span)
        span.start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span.end = perf_counter_ns()
            self._open.pop()
            self._last = span

    def note(self, **counts) -> None:
        """Attach work counts to the span that closed last."""
        self._last.counts = counts

    def summary(self, factors) -> dict[str, dict]:
        """Per span name: calls, total self time (ns) and summed counts.

        Self time is a span's duration minus the time its children cover;
        children of one span never overlap, since calls run one at a time.
        Each span's self time, and each count whose key ends in ``_ns``, is
        multiplied by ``factors[its request]``.
        """
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "self_ns": 0})
            agg["calls"] += 1
            factor = factors[s.request]
            agg["self_ns"] += (s.end - s.start - child_ns[s.id]) * factor
            for key, value in (s.counts or {}).items():
                agg[key] = agg.get(key, 0) + (value * factor if key.endswith("_ns") else value)
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                rec = {"id": s.id, "parent": s.parent, "request": s.request,
                       "name": s.name, "start_ns": s.start, "end_ns": s.end}
                rec.update(s.counts or {})
                f.write(json.dumps(rec) + "\n")


class _Untraced:
    on = False

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


UNTRACED = _Untraced()
