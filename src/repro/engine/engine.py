"""The :class:`ZSmilesEngine` facade — one batch-first compression surface.

Every batch, corpus and file operation on a
:class:`~repro.core.codec.ZSmilesCodec` runs through the engine
(:meth:`ZSmilesEngine.from_codec` wraps an existing codec); the codec itself
keeps only single-record calls.  Baseline codecs plug into the same surface
through :class:`~repro.engine.baselines.BaselineBackend`.

One :class:`~repro.engine.config.EngineConfig` describes dictionary training,
preprocessing, parsing and backend selection; every batch operation returns a
:class:`~repro.engine.backends.BatchResult` with the transformed records, the
aggregate :class:`~repro.core.codec.CodecStats` and the wall time.  With
``backend="auto"`` (the default) small batches run in-process through the
flat-array kernel (:mod:`repro.engine.kernel`) and large ones on the process
pool (whose workers run the same kernel), so callers never hand-roll the
dispatch decision.  ``backend="serial"`` selects the per-line reference
oracle instead — byte parity between the two is the engine's core invariant
(see :mod:`repro.engine` for the full kernel-vs-reference contract).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..core.codec import CodecStats, ZSmilesCodec
from ..core.streaming import FILE_ENCODING, SMI_SUFFIX, ZSMI_SUFFIX, FileStats
from ..dictionary.codec_table import CodecTable
from ..dictionary.generator import DictionaryGenerator, TrainingReport
from ..dictionary import serialization
from ..errors import CodecError
from .backends import BatchResult, CompressionBackend, create_backend
from .config import AUTO_BACKEND, KERNEL_BACKEND, PROCESS_BACKEND, EngineConfig, pool_repays

PathLike = Union[str, Path]
#: A backend name (``None`` = the configured one) or a backend instance.
BackendLike = Union[str, CompressionBackend, None]


class ZSmilesEngine:
    """Batch-first compression engine with pluggable execution backends."""

    def __init__(
        self,
        table: CodecTable,
        config: Optional[EngineConfig] = None,
        codec: Optional[ZSmilesCodec] = None,
    ):
        self.config = config or EngineConfig()
        if codec is None:
            codec = ZSmilesCodec(
                table,
                pipeline=self.config.build_pipeline(),
                strategy=self.config.strategy,
            )
        self.codec = codec
        self.table = codec.table
        self.training_report: Optional[TrainingReport] = codec.training_report
        self._backends: Dict[str, CompressionBackend] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def train(
        cls,
        corpus: Iterable[str],
        config: Optional[EngineConfig] = None,
        **overrides: object,
    ) -> "ZSmilesEngine":
        """Train a dictionary on *corpus* and return an engine around it.

        *overrides* are :class:`EngineConfig` field values applied on top of
        *config* (or the default configuration), e.g.
        ``ZSmilesEngine.train(corpus, lmax=8, backend="process")``.
        """
        config = (config or EngineConfig()).replace(**overrides)
        pipeline = config.build_pipeline()
        prepared = pipeline.apply_list(list(corpus))
        generator = DictionaryGenerator(config.dictionary_config())
        table = generator.train(prepared)
        codec = ZSmilesCodec(table, pipeline=pipeline, strategy=config.strategy)
        codec.training_report = generator.report
        engine = cls(table, config=config, codec=codec)
        engine.training_report = generator.report
        return engine

    @classmethod
    def from_dictionary(
        cls,
        path: PathLike,
        config: Optional[EngineConfig] = None,
        **overrides: object,
    ) -> "ZSmilesEngine":
        """Load a previously saved ``.dct`` dictionary into an engine."""
        config = (config or EngineConfig()).replace(**overrides)
        table = serialization.load(path)
        return cls(table, config=config)

    @classmethod
    def from_codec(
        cls,
        codec: ZSmilesCodec,
        config: Optional[EngineConfig] = None,
        **overrides: object,
    ) -> "ZSmilesEngine":
        """Wrap an existing codec (its pipeline and strategy win over *config*).

        The returned engine's configuration is synced to the codec — parse
        strategy, pre-population, and the preprocessing switch / ring policy
        inferred from the codec's pipeline steps — so ``config.replace()``
        derivatives describe what the engine actually does.
        """
        config = (config or EngineConfig()).replace(**overrides)
        preprocessing = False
        ring_policy = config.ring_policy
        for name in codec.pipeline.names:
            if name.startswith("ring_renumber[") and name.endswith("]"):
                preprocessing = True
                ring_policy = name[len("ring_renumber[") : -1]
        config = config.replace(
            strategy=codec.compressor.strategy,
            preprocessing=preprocessing,
            ring_policy=ring_policy,
            prepopulation=codec.table.prepopulation,
        )
        return cls(codec.table, config=config, codec=codec)

    # ------------------------------------------------------------------ #
    # Backend management
    # ------------------------------------------------------------------ #
    def backend(self, name: BackendLike = None, batch_size: int = 0) -> CompressionBackend:
        """The (cached) backend instance for *name*.

        ``None`` or ``"auto"`` resolves through the configuration's batch-size
        threshold; concrete names come from the backend registry.  A backend
        instance (such as :meth:`pack_backend`'s) is returned as it is.
        """
        if name is not None and not isinstance(name, str):
            return name
        resolved = name or self.config.backend
        if resolved == AUTO_BACKEND:
            resolved = self.config.resolved_backend(batch_size)
        if resolved not in self._backends:
            self._backends[resolved] = create_backend(resolved, self.codec, self.config)
        return self._backends[resolved]

    @contextmanager
    def pack_backend(
        self, records: int, workers: Optional[int] = None, backend: Optional[str] = None
    ) -> Iterator[CompressionBackend]:
        """The backend one pack of *records* records compresses through.

        A named *backend* (else the configured one) is obeyed, and
        ``"process"`` runs on a pool of *workers* processes (else the
        configured worker count).  ``"auto"`` compresses the pack's first
        batch in-process and keeps it; the batches after it go to a
        *workers*-process pool only if :func:`~repro.engine.config.pool_repays`
        for the records left at that batch's cost per record, and stay on
        the kernel otherwise.  Either pool splits each batch into one chunk
        per worker and is shut down when the block exits, so no pool
        outlives the pack.
        """
        name = backend or self.config.backend
        if name not in (AUTO_BACKEND, PROCESS_BACKEND):
            yield self.backend(name)
            return
        route = _PackRoute(self, records, workers or self.config.worker_count(), name)
        try:
            yield route  # type: ignore[misc]
        finally:
            route.close()

    def close(self) -> None:
        """Release backend resources (worker pools).  The engine stays usable."""
        for backend in self._backends.values():
            closer = getattr(backend, "close", None)
            if closer is not None:
                closer()
        self._backends.clear()

    def __enter__(self) -> "ZSmilesEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Batch operations (the primary surface)
    # ------------------------------------------------------------------ #
    def compress_batch(self, records: Sequence[str], backend: BackendLike = None) -> BatchResult:
        """Preprocess and compress *records* (order preserved).

        The result's ``stats.original_bytes`` measures the raw input (before
        preprocessing), one newline byte per record included.
        """
        records = list(records)
        return self.backend(backend, len(records)).compress_batch(records)

    def decompress_batch(
        self, records: Sequence[str], backend: Optional[str] = None
    ) -> BatchResult:
        """Decompress *records* back to (preprocessed) SMILES (order preserved)."""
        records = list(records)
        return self.backend(backend, len(records)).decompress_batch(records)

    def evaluate(self, corpus: Sequence[str], backend: Optional[str] = None) -> CodecStats:
        """Compress *corpus* and return the aggregate statistics.

        Byte counts match the paper's file-level ratios: one newline byte per
        record on both sides, original side measured on the raw input.
        """
        return self.compress_batch(corpus, backend=backend).stats

    def compression_ratio(self, corpus: Sequence[str], backend: Optional[str] = None) -> float:
        """Corpus compression ratio (compressed bytes / original bytes)."""
        return self.evaluate(corpus, backend=backend).ratio

    # ------------------------------------------------------------------ #
    # Single-record conveniences (delegate to the serial hot path)
    # ------------------------------------------------------------------ #
    def preprocess(self, smiles: str) -> str:
        """Apply the engine's preprocessing pipeline to one SMILES string."""
        return self.codec.preprocess(smiles)

    def compress(self, smiles: str) -> str:
        """Preprocess and compress one SMILES string."""
        return self.codec.compress(smiles)

    def decompress(self, compressed: str) -> str:
        """Decompress one record back to (preprocessed) SMILES text."""
        return self.codec.decompress(compressed)

    # ------------------------------------------------------------------ #
    # File operations (streaming, batch-at-a-time)
    # ------------------------------------------------------------------ #
    def compress_file(
        self,
        input_path: PathLike,
        output_path: Optional[PathLike] = None,
        progress: Optional[object] = None,
        batch_size: int = 8192,
        backend: Optional[str] = None,
    ):
        """Compress a ``.smi`` file into a ``.zsmi`` file, one record per line.

        The output defaults to the input path with the ``.zsmi`` suffix and
        must not be the input file.  Records stream through the engine
        *batch_size* at a time, so arbitrarily large libraries never need to
        fit in memory and the process-pool backend can be exploited per
        batch.  *progress* is called with the line count every 100 000
        records.  Returns a :class:`~repro.core.streaming.FileStats`.
        """
        input_path = Path(input_path)
        if output_path is None:
            output_path = input_path.with_suffix(ZSMI_SUFFIX)
        return self._transform_file(
            input_path, output_path, compressing=True, progress=progress,
            batch_size=batch_size, backend=backend,
        )

    def decompress_file(
        self,
        input_path: PathLike,
        output_path: Optional[PathLike] = None,
        progress: Optional[object] = None,
        batch_size: int = 8192,
        backend: Optional[str] = None,
    ):
        """Decompress a ``.zsmi`` file back into a ``.smi`` file (see :meth:`compress_file`)."""
        input_path = Path(input_path)
        if output_path is None:
            output_path = input_path.with_suffix(SMI_SUFFIX)
        return self._transform_file(
            input_path, output_path, compressing=False, progress=progress,
            batch_size=batch_size, backend=backend,
        )

    def _transform_file(
        self,
        input_path: Path,
        output_path: PathLike,
        compressing: bool,
        progress: Optional[object],
        batch_size: int,
        backend: Optional[str],
    ):
        if batch_size < 1:
            raise CodecError("batch_size must be >= 1")
        output_path = Path(output_path)
        # Opening the output truncates it, so it must not be the input.
        if output_path.exists() and os.path.samefile(input_path, output_path):
            raise CodecError(f"output {output_path} is the input file")
        lines = 0
        input_bytes = 0
        output_bytes = 0
        with open(input_path, "r", encoding=FILE_ENCODING, newline="") as src, open(
            output_path, "w", encoding=FILE_ENCODING, newline="\n"
        ) as dst:
            for batch in _batched_lines(src, batch_size):
                if compressing:
                    result = self.compress_batch(batch, backend=backend)
                else:
                    result = self.decompress_batch(batch, backend=backend)
                for record, out in zip(batch, result.records):
                    if "\n" in out or "\r" in out:
                        raise CodecError(
                            "transform produced a record containing a line terminator"
                        )
                    dst.write(out)
                    dst.write("\n")
                    lines += 1
                    input_bytes += len(record.encode(FILE_ENCODING)) + 1
                    output_bytes += len(out.encode(FILE_ENCODING)) + 1
                    if progress is not None and lines % 100_000 == 0:
                        progress(lines)
        return FileStats(
            input_path=input_path,
            output_path=output_path,
            lines=lines,
            input_bytes=input_bytes,
            output_bytes=output_bytes,
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save_dictionary(self, path: PathLike) -> None:
        """Write the engine's dictionary to a ``.dct`` file."""
        serialization.save(self.table, path)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ZSmilesEngine(entries={len(self.table)}, "
            f"backend={self.config.backend!r}, "
            f"strategy={self.config.strategy.value})"
        )


class _PackRoute:
    """The compression backend of one ``"auto"`` or ``"process"`` pack.

    Its first batch settles where every later batch runs: ``"process"``
    starts the pool; ``"auto"`` compresses that batch on the kernel, takes
    its seconds per record, and starts the pool only if it repays its start
    on the records left.
    """

    def __init__(self, engine: ZSmilesEngine, records: int, workers: int, name: str):
        self.name = name
        self.engine = engine
        self.records_left = records
        self.workers = workers
        self.chosen: Optional[CompressionBackend] = None
        self.pool: Optional[CompressionBackend] = None

    def compress_batch(self, records: Sequence[str]) -> BatchResult:
        if self.chosen is not None:
            return self.chosen.compress_batch(records)
        self.records_left -= len(records)
        if self.name == PROCESS_BACKEND:
            self.chosen = self._start_pool(len(records))
            return self.chosen.compress_batch(records)
        kernel = self.engine.backend(KERNEL_BACKEND)
        result = kernel.compress_batch(records)
        per_record = result.wall_time / max(len(records), 1)
        if pool_repays(self.records_left, per_record, self.workers):
            self.chosen = self._start_pool(len(records))
        else:
            self.chosen = kernel
        return result

    def _start_pool(self, batch: int) -> CompressionBackend:
        """A pool of :attr:`workers` processes, one chunk of *batch* each."""
        config = self.engine.config
        chunk_size = min(config.chunk_size, max(1, -(-batch // self.workers)))
        self.pool = create_backend(
            PROCESS_BACKEND,
            self.engine.codec,
            config.replace(jobs=self.workers, chunk_size=chunk_size),
        )
        return self.pool

    def close(self) -> None:
        closer = getattr(self.pool, "close", None)
        if closer is not None:
            closer()


def _batched_lines(handle: Iterable[str], batch_size: int) -> Iterator[List[str]]:
    """Yield terminator-stripped line batches of at most *batch_size* records."""
    batch: List[str] = []
    for raw in handle:
        batch.append(raw.rstrip("\r\n"))
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
