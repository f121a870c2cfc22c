"""Adapter exposing ZSMILES through the :class:`BaselineCodec` interface.

The Figure 4 experiment iterates over a list of :class:`BaselineCodec`
instances; wrapping the real codec keeps that driver uniform and also gives a
single place where the end-to-end "ZSMILES + Bzip2" pipeline is defined.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.codec import ZSmilesCodec
from ..dictionary.prepopulation import PrePopulation
from .bzip2_codec import bzip2_over_lines
from .interface import BaselineCodec, CodecProperties


class ZSmilesBaseline(BaselineCodec):
    """ZSMILES behind the baseline interface (trains its shared dictionary on ``fit``)."""

    properties = CodecProperties(
        name="ZSMILES",
        readable_output=True,
        random_access=True,
        shared_dictionary=True,
    )

    def __init__(
        self,
        preprocessing: bool = True,
        prepopulation: PrePopulation = PrePopulation.SMILES_ALPHABET,
        lmax: int = 8,
    ):
        self.preprocessing = preprocessing
        self.prepopulation = prepopulation
        self.lmax = lmax
        self.codec: Optional[ZSmilesCodec] = None

    def fit(self, corpus: Sequence[str]) -> "ZSmilesBaseline":
        """Train the ZSMILES dictionary on *corpus*."""
        self.codec = ZSmilesCodec.train(
            corpus,
            preprocessing=self.preprocessing,
            prepopulation=self.prepopulation,
            lmax=self.lmax,
        )
        return self

    def _require_codec(self) -> ZSmilesCodec:
        if self.codec is None:
            raise RuntimeError("ZSmilesBaseline.fit must be called before compressing")
        return self.codec

    def compress_record(self, record: str) -> bytes:
        return self._require_codec().compress(record).encode("latin-1")

    def decompress_record(self, payload: bytes) -> str:
        return self._require_codec().decompress(payload.decode("latin-1"))

    # ------------------------------------------------------------------ #
    def zsmiles_plus_bzip2_ratio(self, corpus: Sequence[str]) -> float:
        """End-to-end ratio of bzip2 applied on top of the ZSMILES output.

        This is the "ZSMILES + Bzip2" bar of Figure 4: the dataset is first
        compressed record-by-record with ZSMILES (keeping separability for the
        on-line copy), and the resulting ``.zsmi`` file is then bzip2'd for
        cold storage.
        """
        # Imported here: repro.engine.baselines imports this package.
        from ..engine.engine import ZSmilesEngine

        engine = ZSmilesEngine.from_codec(self._require_codec(), backend="kernel")
        compressed_lines = engine.compress_batch(corpus).records
        zsmiles_ratio = sum(len(line) + 1 for line in compressed_lines) / max(
            1, sum(len(record) + 1 for record in corpus)
        )
        bzip2_stage = bzip2_over_lines(compressed_lines)
        return zsmiles_ratio * bzip2_stage
