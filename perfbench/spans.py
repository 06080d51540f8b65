"""In-memory spans around the benchmark's calls into the package.

A span records name, start, end, parent and run id.  Spans stay in a list
while the workload runs and are written as JSON lines once it ends.  The
layer of a span is the part of its name before the first dot, so
`symmetry.support_class_reps` belongs to `symmetry`.  When tracing is off,
`span` hands back one shared no-op context, so untraced runs pay one
attribute lookup and one call per operation.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass

_OFF = nullcontext()


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str


class Tracer:
    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.bookkeeping_s = 0.0  # time spent inside the tracer itself

    def span(self, name: str):
        return _Active(self, name) if self.enabled else _OFF

    def layer_self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time covered by child spans."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            own = (s.end - s.start) - child_time.get(s.id, 0.0)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class _Active:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t0 = time.perf_counter()
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.span = Span(len(tr.spans), parent, self.name, 0.0, 0.0, tr.run_id)
        tr.spans.append(self.span)
        tr._stack.append(self.span.id)
        now = time.perf_counter()
        tr.bookkeeping_s += now - t0
        self.span.start = now
        return self.span

    def __exit__(self, *exc):
        now = time.perf_counter()
        tr = self.tracer
        self.span.end = now
        tr._stack.pop()
        tr.bookkeeping_s += time.perf_counter() - now
        return False
