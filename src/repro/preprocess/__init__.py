"""SMILES preprocessing (Section IV-A of the paper)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".pipeline": [
        "PreprocessingPipeline", "drop_title_column", "make_pipeline",
        "strip_whitespace",
    ],
    ".ring_renumber": [
        "RingRenumberPolicy", "assign_ring_ids", "renumber_rings", "renumber_tokens",
    ],
})
