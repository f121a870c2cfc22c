"""Process-pool batch compression / decompression (deprecation shims).

The process-pool execution path now lives in
:class:`repro.engine.backends.ProcessPoolBackend`; this module keeps the
historical :class:`ParallelCodec` surface as a thin wrapper so existing
callers keep working.  New code should construct a
:class:`repro.engine.ZSmilesEngine` with ``backend="process"`` (or leave the
default ``"auto"``, which picks the pool for large batches) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.codec import ZSmilesCodec
from ..engine.backends import (
    ProcessPoolBackend,
    _compress_chunk,
    _decompress_chunk,
    _init_worker,
)
from ..engine.config import EngineConfig, default_worker_count
from ..errors import ParallelExecutionError

__all__ = [
    "ParallelCodec",
    "ParallelStats",
    "default_worker_count",
]


@dataclass
class ParallelStats:
    """Bookkeeping returned alongside parallel batch operations."""

    records: int
    workers: int
    chunks: int


class ParallelCodec:
    """Data-parallel wrapper around a :class:`ZSmilesCodec` (legacy surface).

    The wrapper does not change any output: ``compress_many`` /
    ``decompress_many`` return exactly what the serial codec would, in the
    same order.  Small batches fall back to the serial path to avoid paying
    process start-up for nothing.  Deprecated shim over
    :class:`repro.engine.backends.ProcessPoolBackend`.
    """

    def __init__(
        self,
        codec: ZSmilesCodec,
        workers: Optional[int] = None,
        chunk_size: int = 2048,
        serial_threshold: int = 4096,
    ):
        if workers is not None and workers < 1:
            raise ParallelExecutionError("workers must be >= 1")
        if chunk_size < 1:
            raise ParallelExecutionError("chunk_size must be >= 1")
        self.codec = codec
        self.workers = workers or default_worker_count()
        self.chunk_size = chunk_size
        self.serial_threshold = serial_threshold
        self.last_stats: Optional[ParallelStats] = None

    # ------------------------------------------------------------------ #
    def compress_many(self, records: Sequence[str]) -> List[str]:
        """Compress *records* across the worker pool (order preserved)."""
        return self._run(records, compressing=True)

    def decompress_many(self, records: Sequence[str]) -> List[str]:
        """Decompress *records* across the worker pool (order preserved)."""
        return self._run(records, compressing=False)

    # ------------------------------------------------------------------ #
    def _run(self, records: Sequence[str], compressing: bool) -> List[str]:
        records = list(records)
        if self.workers == 1 or len(records) <= self.serial_threshold:
            self.last_stats = ParallelStats(records=len(records), workers=1, chunks=1)
            if compressing:
                return [self.codec.compress(record) for record in records]
            return [self.codec.decompress(record) for record in records]

        # The historical contract tears the pool down after every call
        # (callers never close a ParallelCodec); the engine's persistent-pool
        # behaviour is reserved for ProcessPoolBackend / ZSmilesEngine users.
        with ProcessPoolBackend(
            self.codec, EngineConfig(jobs=self.workers, chunk_size=self.chunk_size)
        ) as backend:
            if compressing:
                result = backend.compress_batch(records)
            else:
                result = backend.decompress_batch(records)
        self.last_stats = ParallelStats(
            records=len(records), workers=self.workers, chunks=result.chunks
        )
        return result.records
