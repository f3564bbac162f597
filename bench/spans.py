"""In-memory spans for the traced run.

A span records a name, its start and end (``time.perf_counter``), the index
of the enclosing span (-1 for none) and the id of the benchmark op it
belongs to.  Spans are named ``<layer>.<function>`` after the library
module they enter (``sequence.export_bfile``) or ``bench.<step>`` for the
benchmark's own steps, and are written out as JSON when the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op_id = -1
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def as_json(self) -> list[dict]:
        return [
            {"name": n, "start": a, "end": b, "parent": p, "op": o}
            for n, a, b, p, o in self.spans
        ]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``; ``s``, the spans' time less their
    ``bench.*`` children (the benchmark's own checks); ``self_s``, their time
    less all children."""
    child_s: defaultdict[int, float] = defaultdict(float)
    bench_child_s: defaultdict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
            if name.startswith("bench."):
                bench_child_s[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start - bench_child_s[i]
        row["self_s"] += end - start - child_s[i]
    return out


def layer_self_time(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    totals: defaultdict[str, float] = defaultdict(float)
    for name, row in summary.items():
        totals[name.split(".", 1)[0]] += row["self_s"]
    return dict(totals)
