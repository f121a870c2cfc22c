"""Adapters putting the Figure 4 baseline codecs behind the backend protocol.

The baseline compressors (:mod:`repro.baselines`) are record-oriented and
byte-valued; :class:`BaselineBackend` lifts any of them to the engine's batch
contract so the experiment drivers can iterate over ZSMILES backends and
baselines with one code path.  Compressed payloads are surfaced as Latin-1
strings — a lossless byte ↔ str embedding — so :class:`BatchResult` keeps a
single record type across every backend.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from ..baselines.interface import BaselineCodec
from ..core.codec import CodecStats
from .backends import BatchResult

#: Encoding used to embed baseline byte payloads into str records losslessly.
PAYLOAD_ENCODING = "latin-1"


class BaselineBackend:
    """One baseline codec behind the :class:`CompressionBackend` protocol.

    The wrapped codec must already be fitted (or need no fitting); use
    :meth:`fit` to train in place.  Byte counts in the returned stats include
    the codec's :attr:`~repro.baselines.interface.BaselineCodec.record_overhead`
    per record on the compressed side and one newline per record on the plain
    side, matching :meth:`BaselineCodec.compression_ratio`.
    """

    def __init__(self, codec: BaselineCodec):
        self.codec = codec
        self.name = f"baseline:{codec.properties.name}"

    # ------------------------------------------------------------------ #
    @classmethod
    def fitted(cls, codec: BaselineCodec, corpus: Sequence[str]) -> "BaselineBackend":
        """Fit *codec* on *corpus* and wrap it."""
        return cls(codec.fit(corpus))

    def fit(self, corpus: Sequence[str]) -> "BaselineBackend":
        """Train the wrapped codec in place and return ``self``."""
        self.codec.fit(corpus)
        return self

    # ------------------------------------------------------------------ #
    def compress_batch(self, records: Sequence[str]) -> BatchResult:
        started = time.perf_counter()
        records = list(records)
        payloads = [self.codec.compress_record(record) for record in records]
        out = [payload.decode(PAYLOAD_ENCODING) for payload in payloads]
        stats = CodecStats(
            lines=len(records),
            original_bytes=sum(len(record) + 1 for record in records),
            compressed_bytes=self._compressed_size(records, payloads),
            matches=0,
            escapes=0,
        )
        return BatchResult(
            records=out,
            stats=stats,
            wall_time=time.perf_counter() - started,
            backend=self.name,
        )

    def decompress_batch(self, records: Sequence[str]) -> BatchResult:
        started = time.perf_counter()
        out: List[str] = [
            self.codec.decompress_record(record.encode(PAYLOAD_ENCODING))
            for record in records
        ]
        # The compressed side always uses per-record framing here: the inputs
        # are individual payloads, so corpus-blob accounting (which only some
        # codecs define, over the *plain* records) does not apply.  For those
        # codecs the authoritative ratio is the compress-side one.
        overhead = self.codec.record_overhead
        stats = CodecStats(
            lines=len(records),
            original_bytes=sum(len(record) + 1 for record in out),
            compressed_bytes=sum(len(record) + overhead for record in records),
            matches=0,
            escapes=0,
        )
        return BatchResult(
            records=out,
            stats=stats,
            wall_time=time.perf_counter() - started,
            backend=self.name,
        )

    # ------------------------------------------------------------------ #
    def _compressed_size(self, records: Sequence[str], payloads: Sequence[bytes]) -> int:
        """Stored size of the batch, honouring codec-specific accounting.

        Record-oriented codecs store each payload plus its framing overhead;
        corpus-oriented codecs (file-based bzip2) override
        :meth:`BaselineCodec.compressed_size` and must be asked directly.
        """
        if type(self.codec).compressed_size is BaselineCodec.compressed_size:
            overhead = self.codec.record_overhead
            return sum(len(payload) + overhead for payload in payloads)
        return self.codec.compressed_size(records)

    def compression_ratio(self, corpus: Sequence[str]) -> float:
        """Corpus compression ratio through the batch path.

        Codecs with corpus-level accounting (an overridden
        :meth:`BaselineCodec.compressed_size`) are asked directly — running
        the batch path first would compress every record individually only to
        throw the payloads away and compress the corpus again as one blob.
        """
        if type(self.codec).compressed_size is BaselineCodec.compressed_size:
            return self.compress_batch(corpus).stats.ratio
        return self.codec.compression_ratio(corpus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BaselineBackend({self.codec.properties.name!r})"
