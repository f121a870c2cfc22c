"""Experiment drivers, one per table / figure of the paper's evaluation."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".common": ["ExperimentScale", "component_corpora", "mixed_corpus"],
    ".figure4": ["Figure4Result", "run_figure4"],
    ".figure5": ["Figure5Result", "run_figure5"],
    ".summary": ["HeadlineClaims", "SummaryResult", "run_summary"],
    ".table1": ["Table1Result", "run_table1"],
    ".table2": ["Table2Result", "run_table2"],
})
