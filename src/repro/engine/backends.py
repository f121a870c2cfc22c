"""Execution backends for batch compression / decompression.

A backend takes a batch of records and returns a :class:`BatchResult` with the
transformed records (order preserved, one output per input), the aggregate
:class:`~repro.core.codec.CodecStats` of the batch, and the wall time spent.
Three backends operate on a :class:`~repro.core.codec.ZSmilesCodec`:

* :class:`SerialBackend` — in-process loop over the per-line compressor /
  decompressor; the reference implementation every other backend must match
  byte for byte.
* :class:`KernelBackend` — in-process flat-array batch kernel
  (:class:`~repro.engine.kernel.BlockKernel`); byte-identical to the serial
  reference but several times faster, and the default single-process path.
* :class:`ProcessPoolBackend` — data parallelism across CPU cores (the
  pure-Python analogue of the paper's CUDA grid); chunks the batch, ships each
  chunk to a worker process that holds a copy of the codec, and reassembles
  results in order.  Workers run the block kernel too.

Baseline compressors are adapted to the same protocol in
:mod:`repro.engine.baselines`.  Backends register themselves by name so the
engine (and the CLI) can select one with a string.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..core.codec import CodecStats, ZSmilesCodec
from ..core.compressor import record_bytes
from ..errors import ParallelExecutionError
from .config import EngineConfig, KERNEL_BACKEND, PROCESS_BACKEND, SERIAL_BACKEND
from .kernel import BlockKernel


@dataclass
class BatchResult:
    """Outcome of one batch operation through a backend.

    Attributes
    ----------
    records:
        Transformed records, in input order (one output per input).
    stats:
        Aggregate corpus statistics.  For compression, ``original_bytes``
        measures the raw input and ``compressed_bytes`` the output; for
        decompression the roles are mirrored so :attr:`CodecStats.ratio`
        always reads "compressed over plain".  Both sides include one
        line-terminator byte per record, matching the paper's file-size
        accounting.
    wall_time:
        Seconds spent inside the backend.
    backend:
        Name of the backend that ran the batch.
    workers:
        Worker processes that participated (1 for in-process backends).
    chunks:
        Work items the batch was split into (1 for in-process backends).
    """

    records: List[str]
    stats: CodecStats
    wall_time: float
    backend: str
    workers: int = 1
    chunks: int = 1


@runtime_checkable
class CompressionBackend(Protocol):
    """The batch contract every execution backend satisfies."""

    name: str

    def compress_batch(self, records: Sequence[str]) -> BatchResult:
        """Compress *records* (order preserved, one output per input)."""
        ...

    def decompress_batch(self, records: Sequence[str]) -> BatchResult:
        """Decompress *records* (order preserved, one output per input)."""
        ...


# --------------------------------------------------------------------------- #
# Worker-process plumbing (module level so the spawn context can pickle it).
# The codec is sent once per worker through the pool initializer instead of
# once per task: the trie is by far the largest object involved.  Each worker
# compiles its own flat-array kernel from the codec at init time, so chunk
# processing runs the same allocation-free hot loop as the in-process kernel
# backend.
# --------------------------------------------------------------------------- #
_WORKER_KERNEL: Optional[BlockKernel] = None


def _init_worker(codec: ZSmilesCodec) -> None:
    global _WORKER_KERNEL
    _WORKER_KERNEL = BlockKernel(codec)


def _compress_chunk(chunk: List[str]) -> Tuple[List[str], int, int]:
    """Compress one chunk; returns (records, matches, escapes)."""
    assert _WORKER_KERNEL is not None, "worker initialized without a codec"
    return _WORKER_KERNEL.compress_block(chunk)


def _decompress_chunk(chunk: List[str]) -> Tuple[List[str], int, int]:
    """Decompress one chunk; returns (records, 0, 0)."""
    assert _WORKER_KERNEL is not None, "worker initialized without a codec"
    return _WORKER_KERNEL.decompress_block(chunk), 0, 0


def _batch_stats(
    inputs: Sequence[str],
    outputs: Sequence[str],
    matches: int,
    escapes: int,
    compressing: bool,
) -> CodecStats:
    """Aggregate statistics with the plain side as ``original_bytes``."""
    input_bytes = sum(record_bytes(s) + 1 for s in inputs)
    output_bytes = sum(record_bytes(s) + 1 for s in outputs)
    return CodecStats(
        lines=len(inputs),
        original_bytes=input_bytes if compressing else output_bytes,
        compressed_bytes=output_bytes if compressing else input_bytes,
        matches=matches,
        escapes=escapes,
    )


class SerialBackend:
    """In-process reference backend over a :class:`ZSmilesCodec`."""

    name = SERIAL_BACKEND

    def __init__(self, codec: ZSmilesCodec, config: Optional[EngineConfig] = None):
        self.codec = codec

    # ------------------------------------------------------------------ #
    def compress_batch(self, records: Sequence[str]) -> BatchResult:
        started = time.perf_counter()
        out: List[str] = []
        matches = 0
        escapes = 0
        for line in records:
            record = self.codec.compress_record(line)
            out.append(record.compressed)
            matches += record.matches
            escapes += record.escapes
        return BatchResult(
            records=out,
            stats=_batch_stats(records, out, matches, escapes, compressing=True),
            wall_time=time.perf_counter() - started,
            backend=self.name,
        )

    def decompress_batch(self, records: Sequence[str]) -> BatchResult:
        started = time.perf_counter()
        out = [self.codec.decompress(line) for line in records]
        return BatchResult(
            records=out,
            stats=_batch_stats(records, out, 0, 0, compressing=False),
            wall_time=time.perf_counter() - started,
            backend=self.name,
        )


class KernelBackend:
    """In-process flat-array kernel backend (the default hot path).

    Runs the :class:`~repro.engine.kernel.BlockKernel` batch loop: the
    dictionary compiled once into a :class:`~repro.engine.kernel.CodecAutomaton`,
    then every line of every batch parsed over preallocated integer arrays.
    Byte-identical to :class:`SerialBackend` — including statistics and error
    messages — just faster; the parity is pinned by the golden fixtures and
    the kernel test suite.
    """

    name = KERNEL_BACKEND

    def __init__(self, codec: ZSmilesCodec, config: Optional[EngineConfig] = None):
        self.codec = codec
        self.kernel = BlockKernel(codec)

    # ------------------------------------------------------------------ #
    def compress_batch(self, records: Sequence[str]) -> BatchResult:
        started = time.perf_counter()
        out, matches, escapes = self.kernel.compress_block(records)
        return BatchResult(
            records=out,
            stats=_batch_stats(records, out, matches, escapes, compressing=True),
            wall_time=time.perf_counter() - started,
            backend=self.name,
        )

    def decompress_batch(self, records: Sequence[str]) -> BatchResult:
        started = time.perf_counter()
        out = self.kernel.decompress_block(records)
        return BatchResult(
            records=out,
            stats=_batch_stats(records, out, 0, 0, compressing=False),
            wall_time=time.perf_counter() - started,
            backend=self.name,
        )


class ProcessPoolBackend:
    """Spawn-based process-pool backend over a :class:`ZSmilesCodec`.

    Outputs are byte-identical to :class:`SerialBackend`: the batch is split
    into ``chunk_size``-record chunks, each chunk is processed by a worker
    holding a pickled copy of the codec, and the chunk results are
    concatenated in submission order.
    """

    name = PROCESS_BACKEND

    def __init__(self, codec: ZSmilesCodec, config: Optional[EngineConfig] = None):
        # jobs / chunk_size sanity is EngineConfig.__post_init__'s job.
        config = config or EngineConfig()
        self.codec = codec
        self.workers = config.worker_count()
        self.chunk_size = config.chunk_size
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ #
    def compress_batch(self, records: Sequence[str]) -> BatchResult:
        return self._run(records, _compress_chunk, compressing=True)

    def decompress_batch(self, records: Sequence[str]) -> BatchResult:
        return self._run(records, _decompress_chunk, compressing=False)

    # ------------------------------------------------------------------ #
    # Pool lifecycle: workers are spawned lazily on the first batch and kept
    # alive across batches, so streaming a large file batch-by-batch pays the
    # spawn + codec-pickling cost exactly once.
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_worker,
                initargs=(self.codec,),
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a new batch respawns it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    def _run(
        self,
        records: Sequence[str],
        chunk_fn: Callable[[List[str]], Tuple[List[str], int, int]],
        compressing: bool,
    ) -> BatchResult:
        started = time.perf_counter()
        records = list(records)
        chunks = [
            records[start : start + self.chunk_size]
            for start in range(0, len(records), self.chunk_size)
        ]
        out: List[str] = []
        matches = 0
        escapes = 0
        if not chunks:
            chunk_results: List[Tuple[List[str], int, int]] = []
        else:
            try:
                chunk_results = list(self._ensure_pool().map(chunk_fn, chunks))
            except ParallelExecutionError:
                raise
            except Exception as exc:
                if isinstance(exc, BrokenPipeError) or self._pool is None or getattr(
                    self._pool, "_broken", False
                ):
                    # A dead pool cannot serve further batches; drop it so the
                    # next call starts fresh.
                    self._pool = None
                raise ParallelExecutionError(f"parallel batch failed: {exc}") from exc
        for chunk_records, chunk_matches, chunk_escapes in chunk_results:
            out.extend(chunk_records)
            matches += chunk_matches
            escapes += chunk_escapes
        return BatchResult(
            records=out,
            stats=_batch_stats(records, out, matches, escapes, compressing=compressing),
            wall_time=time.perf_counter() - started,
            backend=self.name,
            workers=min(self.workers, len(chunks)) if chunks else 1,
            chunks=max(1, len(chunks)),
        )


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
BackendFactory = Callable[[ZSmilesCodec, Optional[EngineConfig]], CompressionBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory, overwrite: bool = False) -> None:
    """Register a backend *factory* under *name* for engine / CLI selection."""
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def backend_factory(name: str) -> BackendFactory:
    """The factory registered under *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def create_backend(
    name: str, codec: ZSmilesCodec, config: Optional[EngineConfig] = None
) -> CompressionBackend:
    """Instantiate the backend registered under *name* for *codec*."""
    return backend_factory(name)(codec, config)


def available_backends() -> List[str]:
    """Names of every registered backend."""
    return sorted(_REGISTRY)


register_backend(SERIAL_BACKEND, SerialBackend)
register_backend(KERNEL_BACKEND, KernelBackend)
register_backend(PROCESS_BACKEND, ProcessPoolBackend)
