"""Trace spans the benchmark records around its calls into the program.

Spans live in memory for the whole run and are written out once, when the
run ends, so recording one costs a clock read and a list append.  A span's
*self time* is its duration minus the part of it covered by its children.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    trace: int
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _child(self, name: str, start: float) -> Span:
        """A span whose parent is this thread's open span, if any."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        trace = parent.trace if parent else span_id
        return Span(span_id, parent.id if parent else None, trace, name, start, start)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as a child of this thread's open span."""
        if not self.enabled:
            yield
            return
        span = self._child(name, time.perf_counter())
        stack = self._stack()
        stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed call as a child of this thread's open span."""
        if self.enabled:
            span = self._child(name, start)
            span.end = end
            self.spans.append(span)

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (count, total seconds, self seconds)`` over every span."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        table: Dict[str, Tuple[int, float, float]] = {}
        for span in self.spans:
            covered = _covered(span, children.get(span.id, []))
            duration = span.end - span.start
            count, total, own = table.get(span.name, (0, 0.0, 0.0))
            table[span.name] = (count + 1, total + duration, own + duration - covered)
        return table

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]) + "\n")


def _covered(span: Span, children: List[Span]) -> float:
    """Seconds of *span* covered by the union of its children's intervals."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, cursor)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered
