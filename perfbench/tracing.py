"""In-memory spans and a counting model proxy for the traced benchmark run.

Spans are recorded from the benchmark's own code around each public call
it makes into the package; nothing inside `src/` is patched. A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer, record):
        self._tracer = tracer
        self._record = record

    def __enter__(self):
        self._tracer._stack.append(self._record[0])
        self._record[3] = time.perf_counter()
        return self._record

    def __exit__(self, *exc):
        self._record[4] = time.perf_counter()
        self._tracer._stack.pop()
        return False


class Tracer:
    """Records spans as [id, parent id, name, start, end, attrs] in memory.

    A disabled tracer hands out a shared no-op context, so the untraced run
    pays one method call per span site.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counters = defaultdict(list)
        self._stack = []
        self._null = contextlib.nullcontext()

    def span(self, name, **attrs):
        if not self.enabled:
            return self._null
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, 0.0, 0.0, attrs]
        self.spans.append(record)
        return _Span(self, record)

    def count(self, name, value):
        """Record one observation of a per-layer count or ratio."""
        if self.enabled:
            self.counters[name].append(value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end", "attrs"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                handle,
            )


class TracedModel:
    """Times, counts and sums rows of `predict_proba`; forwards all else."""

    def __init__(self, model, kind, tracer):
        self._model = model
        self._name = f"models.predict_proba.{kind}"
        self._tracer = tracer

    def predict_proba(self, X):
        rows = len(X) if getattr(X, "ndim", 1) == 2 else 1
        with self._tracer.span(self._name, rows=rows):
            return self._model.predict_proba(X)

    def __getattr__(self, name):
        return getattr(self._model, name)


class SpanIndex:
    """Per-span durations, self times and parent names of a finished trace."""

    def __init__(self, spans):
        self.spans = spans
        child_time = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.self_time = [
            (end - start) - child_time[sid] for sid, _, _, start, end, _ in spans
        ]

    def named(self, name):
        return [s for s in self.spans if s[2] == name]

    def durations(self, name):
        return [s[4] - s[3] for s in self.named(name)]

    def median_ms(self, name):
        values = self.durations(name)
        return 1000.0 * statistics.median(values) if values else 0.0

    def total_s(self, name):
        return sum(self.durations(name))

    def self_s(self, name):
        return sum(self.self_time[s[0]] for s in self.named(name))

    def parent_name(self, span):
        return None if span[1] is None else self.spans[span[1]][2]
