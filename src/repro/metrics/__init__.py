"""Measurement and reporting helpers shared by experiments and benchmarks."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".figures": ["BarChart", "LineSeries", "figure4_chart", "figure5_chart"],
    ".reporting": ["ResultTable", "comparison_factor", "percent_change"],
    ".timing": ["Timer", "throughput_mb_per_s", "time_callable"],
})
