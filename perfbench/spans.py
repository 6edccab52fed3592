"""In-memory spans for the traced run.

A span is recorded in the benchmark's own code around one call into a
kscheck module: name, start, end, parent span and op id. Nothing inside
kscheck is patched. Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class Tracer:
    on = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: busy ms, self ms and calls, summed over all spans."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        for (name, start, end, _, _), own in zip(self.spans, self.self_ns()):
            row = out[name]
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += own / 1e6
            row["calls"] += 1
        return dict(out)

    def write(self, path) -> None:
        own = self.self_ns()
        rows = [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": op, "self_ns": o}
            for (n, s, e, p, op), o in zip(self.spans, own)
        ]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}), encoding="utf-8")


class NullTracer:
    """Tracing off: spans and counts cost one call each and record nothing."""

    on = False
    op = ""
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, key: str, n: float = 1) -> None:
        pass
