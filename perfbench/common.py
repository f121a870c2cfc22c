"""What every workload receives and returns."""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from .corpus import Inputs
from .host import StealMeter
from .spans import Tracer


@dataclass
class Context:
    inputs: Inputs
    seed: int
    seconds: float
    trace: bool
    steal: StealMeter = field(default_factory=StealMeter)

    @contextmanager
    def window(self, name: str) -> Iterator[None]:
        """A timed window whose CPU steal goes into the noise record."""
        before = StealMeter.sample()
        try:
            yield
        finally:
            self.steal.add(name, before, StealMeter.sample())


@dataclass
class Outcome:
    #: End-to-end metrics under the names BENCHMARK.json lists.
    metrics: Dict[str, float]
    #: The same numbers under the workload's own names, with units.
    named: List[Tuple[str, float, str]]
    attempted: int
    failed: int
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Traced minus untraced value of every end-to-end metric.
    overhead: Dict[str, float] = field(default_factory=dict)
    #: Extra report lines (the self-time table).
    report: List[str] = field(default_factory=list)
    tracer: Tracer = field(default_factory=lambda: Tracer(False))


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    """90th percentile; interpolated, so a handful of samples is enough."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def self_time_report(tracer: Tracer, unit_scale: float = 1e3, unit: str = "ms") -> List[str]:
    """One line per span name: calls, total and self time."""
    lines = [f"{'span':<34} {'calls':>7} {'total ' + unit:>12} {'self ' + unit:>12}"]
    for name, (count, total, own) in sorted(tracer.self_times().items()):
        lines.append(
            f"{name:<34} {count:>7} {total * unit_scale:>12.3f} {own * unit_scale:>12.3f}"
        )
    return lines
