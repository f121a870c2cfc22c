"""High-level ZSMILES codec: training, compression and decompression.

:class:`ZSmilesCodec` bundles the three ingredients of the paper's pipeline
(Figure 3) behind a single object:

* the optional preprocessing pipeline (ring-identifier renumbering),
* the trained dictionary (:class:`~repro.dictionary.codec_table.CodecTable`),
* the per-line compressor / decompressor.

Typical usage::

    from repro import ZSmilesCodec

    codec = ZSmilesCodec.train(training_smiles, preprocessing=True)
    z = codec.compress("COc1cc(C=O)ccc1O")
    assert codec.decompress(z) == codec.preprocess("COc1cc(C=O)ccc1O")

Batches, corpus statistics and files go through the engine:
``ZSmilesEngine.from_codec(codec).compress_batch(xs)``, ``.evaluate(corpus)``
and ``.compress_file(path)`` (see :mod:`repro.engine`).

Note that decompression returns the *preprocessed* SMILES: the ring-identifier
renumbering is a canonicalization, not an invertible transform, but the
renumbered string denotes exactly the same molecule (Section IV-A).  With
``preprocessing=False`` the round trip is byte-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from ..dictionary.codec_table import CodecTable
from ..dictionary.generator import DictionaryConfig, DictionaryGenerator, TrainingReport
from ..dictionary.prepopulation import PrePopulation
from ..dictionary import serialization
from ..preprocess.pipeline import PreprocessingPipeline, make_pipeline
from ..preprocess.ring_renumber import RingRenumberPolicy
from .compressor import CompressionRecord, Compressor, ParseStrategy
from .decompressor import Decompressor


@dataclass
class CodecStats:
    """Aggregate statistics of compressing a corpus with one codec."""

    lines: int
    original_bytes: int
    compressed_bytes: int
    matches: int
    escapes: int

    @property
    def ratio(self) -> float:
        """Compressed bytes / original bytes (lower is better)."""
        if self.original_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.original_bytes

    @property
    def escape_fraction(self) -> float:
        """Fraction of emitted units that are escapes."""
        total = self.matches + self.escapes
        return self.escapes / total if total else 0.0


class ZSmilesCodec:
    """Shared-dictionary SMILES codec with optional domain preprocessing."""

    def __init__(
        self,
        table: CodecTable,
        pipeline: Optional[PreprocessingPipeline] = None,
        strategy: ParseStrategy = ParseStrategy.OPTIMAL,
    ):
        self.table = table
        self.pipeline = pipeline if pipeline is not None else make_pipeline(False)
        self.compressor = Compressor(table, strategy=strategy)
        self.decompressor = Decompressor(table)
        self.training_report: Optional[TrainingReport] = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    @classmethod
    def train(
        cls,
        corpus: Iterable[str],
        preprocessing: bool = True,
        ring_policy: RingRenumberPolicy = "innermost",
        prepopulation: PrePopulation = PrePopulation.SMILES_ALPHABET,
        lmin: int = 2,
        lmax: int = 8,
        max_entries: Optional[int] = None,
        min_occurrences: int = 2,
        rank_mode: str = "savings",
        strategy: ParseStrategy = ParseStrategy.OPTIMAL,
    ) -> "ZSmilesCodec":
        """Train a codec on *corpus* (Figure 2 of the paper).

        Parameters
        ----------
        corpus:
            Training SMILES strings.
        preprocessing:
            Apply ring-identifier renumbering before training and before every
            compression (the Table I "Pre-processing" switch).
        ring_policy:
            ``"innermost"`` (paper default) or ``"outermost"``.
        prepopulation:
            Dictionary seeding policy (the Table I "Pre-population" column).
        lmin, lmax, max_entries, min_occurrences, rank_mode:
            Algorithm 1 parameters; see
            :class:`~repro.dictionary.generator.DictionaryConfig`.
        strategy:
            Optimal shortest-path parsing (paper) or greedy longest match.
        """
        pipeline = make_pipeline(preprocessing, ring_policy=ring_policy)
        prepared = pipeline.apply_list(list(corpus))
        config = DictionaryConfig(
            lmin=lmin,
            lmax=lmax,
            max_entries=max_entries,
            prepopulation=prepopulation,
            min_occurrences=min_occurrences,
            rank_mode=rank_mode,
        )
        generator = DictionaryGenerator(config)
        table = generator.train(prepared)
        codec = cls(table, pipeline=pipeline, strategy=strategy)
        codec.training_report = generator.report
        return codec

    # ------------------------------------------------------------------ #
    # Single-record operations
    # ------------------------------------------------------------------ #
    def preprocess(self, smiles: str) -> str:
        """Apply the codec's preprocessing pipeline to one SMILES string."""
        return self.pipeline(smiles)

    def compress(self, smiles: str) -> str:
        """Preprocess and compress one SMILES string."""
        return self.compressor.compress_line(self.preprocess(smiles))

    def compress_record(self, smiles: str) -> CompressionRecord:
        """Preprocess and compress one SMILES string, returning statistics."""
        return self.compressor.compress_record(self.preprocess(smiles))

    def decompress(self, compressed: str) -> str:
        """Decompress one record back to (preprocessed) SMILES text."""
        return self.decompressor.decompress_line(compressed)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save_dictionary(self, path: Union[str, Path]) -> None:
        """Write the codec's dictionary to a ``.dct`` file."""
        serialization.save(self.table, path)

    @classmethod
    def from_dictionary(
        cls,
        path: Union[str, Path],
        preprocessing: bool = True,
        ring_policy: RingRenumberPolicy = "innermost",
        strategy: ParseStrategy = ParseStrategy.OPTIMAL,
    ) -> "ZSmilesCodec":
        """Load a codec from a previously saved ``.dct`` dictionary."""
        table = serialization.load(path)
        pipeline = make_pipeline(preprocessing, ring_policy=ring_policy)
        return cls(table, pipeline=pipeline, strategy=strategy)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ZSmilesCodec(entries={len(self.table)}, "
            f"pipeline={self.pipeline.describe()!r}, "
            f"strategy={self.compressor.strategy.value})"
        )


__all__ = [
    "CodecStats",
    "ZSmilesCodec",
]
