"""Virtual screening substrate: the paper's motivating use case (Section I)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".docking": [
        "DEFAULT_POCKETS", "PocketModel", "dock_library", "dock_score", "top_hits",
    ],
    ".pipeline": ["CampaignResult", "ScreeningCampaign"],
    ".storage": ["StorageFootprint", "format_bytes", "measure_footprint"],
})
