"""Baseline compressors compared against ZSMILES (Section III / Figure 4)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".bzip2_codec": ["Bzip2FileCodec", "Bzip2LineCodec", "bzip2_over_lines"],
    ".fsst": ["FsstCodec", "FsstSymbolTable", "build_symbol_table"],
    ".interface": ["BaselineCodec", "CodecProperties"],
    ".shoco": ["ShocoCodec", "ShocoModel"],
    ".transform": ["TransformBzip2Codec", "forward_transform", "inverse_transform"],
    ".zsmiles_adapter": ["ZSmilesBaseline"],
})
