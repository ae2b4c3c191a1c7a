"""In-memory spans and counters recorded around calls into the package.

A span holds (name, start, end, parent, op).  Spans are kept in a list while
the run lasts and written out once it ends, so recording costs two clock
reads and a list append.  With tracing off, ``span`` hands back one shared
no-op context and ``add`` returns at once.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

_OFF = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        parent = t.stack[-1] if t.stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.op])
        t.stack.append(self.index)

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def add(self, name: str, value: float) -> None:
        """Accumulate a per-run counter, such as gates emitted."""
        if self.enabled:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen, such as the worst oracle defect."""
        if self.enabled:
            self.peaks[name] = max(self.peaks[name], value)

    def totals(self) -> tuple[dict[str, float], float]:
        """Summed duration per span name, and the summed top-level layer time.

        Top-level layer spans are the direct children of an op span; their sum
        against the op durations shows how much of an op the layers cover.
        """
        by_name: dict[str, float] = defaultdict(float)
        covered = 0.0
        for name, start, end, parent, _ in self.spans:
            by_name[name] += end - start
            if parent is not None and self.spans[parent][3] is None:
                covered += end - start
        return by_name, covered

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        records = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": records, "counts": dict(self.counts)}) + "\n")
