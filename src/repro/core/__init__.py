"""ZSMILES core: the paper's primary contribution (Section IV)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".codec": ["CodecStats", "ZSmilesCodec"],
    ".compressor": [
        "CompressionRecord", "Compressor", "ParseStrategy", "compression_ratio",
    ],
    ".decompressor": ["Decompressor"],
    ".escape": ["escape_char", "escaped_length", "iter_compressed_units"],
    ".random_access": ["LineIndex", "RandomAccessReader"],
    ".shortest_path": [
        "ParseStep", "greedy_parse", "optimal_parse", "parse_cost", "parse_consumes",
    ],
    ".streaming": ["FileStats", "read_lines", "write_lines"],
})
