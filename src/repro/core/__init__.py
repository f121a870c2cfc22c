"""ZSMILES core: the paper's primary contribution (Section IV)."""

from .codec import CodecStats, ZSmilesCodec
from .compressor import CompressionRecord, Compressor, ParseStrategy, compression_ratio
from .decompressor import Decompressor
from .escape import escape_char, escaped_length, iter_compressed_units
from .random_access import LineIndex, RandomAccessReader
from .shortest_path import ParseStep, greedy_parse, optimal_parse, parse_cost, parse_consumes
from .streaming import FileStats, read_lines, write_lines

__all__ = [
    "CodecStats",
    "ZSmilesCodec",
    "CompressionRecord",
    "Compressor",
    "ParseStrategy",
    "compression_ratio",
    "Decompressor",
    "escape_char",
    "escaped_length",
    "iter_compressed_units",
    "LineIndex",
    "RandomAccessReader",
    "ParseStep",
    "greedy_parse",
    "optimal_parse",
    "parse_cost",
    "parse_consumes",
    "FileStats",
    "read_lines",
    "write_lines",
]
