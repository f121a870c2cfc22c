"""Packing corpora into ``.zss`` shards.

:class:`ShardWriter` streams records into fixed-size blocks.  Compression runs
through the PR-1 :class:`~repro.engine.ZSmilesEngine` batch surface: pending
records are accumulated across *several* blocks and compressed in one engine
batch — small batches through the in-process flat-array kernel
(:mod:`repro.engine.kernel`), large ones on the process pool whose workers run
the same kernel (``backend="auto"`` / ``--jobs``) — so packing rides the
codebase's fastest path while the per-record output stays byte-identical to
the serial per-line codec path.

The writer also accepts pre-compressed records (:meth:`add_compressed_many`)
so callers that already hold ``.zsmi`` lines — the screening footprint
accounting, ``.zsmi`` → ``.zss`` conversions — can pack without compressing
twice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, List, Optional, Sequence, Union

from ..dictionary import serialization
from ..engine.engine import ZSmilesEngine
from ..errors import StoreError
from .format import (
    BlockInfo,
    DICTIONARY_META_KEY,
    STORE_SUFFIX,
    encode_payload,
    payload_crc,
    write_footer,
    write_header,
)

PathLike = Union[str, Path]

#: Default number of records per block.
DEFAULT_RECORDS_PER_BLOCK = 256
#: Default number of blocks compressed per engine batch.
DEFAULT_BATCH_BLOCKS = 16


@dataclass(frozen=True)
class StoreInfo:
    """Summary of one packed shard.

    Attributes
    ----------
    path:
        Where the shard was written (``None`` for in-memory targets).
    records:
        Total records stored.
    blocks:
        Number of blocks written.
    records_per_block:
        Block granularity of the shard.
    payload_bytes:
        Compressed payload bytes (excluding header/footer framing).
    file_bytes:
        Total shard size, framing included.
    original_bytes:
        Raw bytes of the records compressed through the engine (one newline
        per record), for ratio reporting; records added pre-compressed are
        not counted.
    """

    path: Optional[Path]
    records: int
    blocks: int
    records_per_block: int
    payload_bytes: int
    file_bytes: int
    original_bytes: int

    @property
    def ratio(self) -> float:
        """Payload bytes over raw bytes (lower is better)."""
        if self.original_bytes == 0:
            return 1.0
        return self.payload_bytes / self.original_bytes


class ShardWriter:
    """Write one ``.zss`` shard, compressing records through an engine.

    Parameters
    ----------
    target:
        Output path or an open binary, seekable file object.
    engine:
        Engine used to compress plain records added with :meth:`add` /
        :meth:`add_many`.  May be ``None`` when only pre-compressed records
        are added.
    records_per_block:
        Records stored per block — the random-access granularity: a reader
        reads and checks this many records to serve one (and decodes only
        the one).
    backend:
        Engine backend name for packing batches (``None`` = the engine's
        configured backend, typically ``"auto"``).
    batch_blocks:
        Blocks' worth of records accumulated before one engine batch runs;
        larger values give the process pool bigger batches to spread over
        workers.
    metadata:
        Extra key/value pairs stored in the footer (JSON-serializable).
    embed_dictionary:
        Embed the engine's ``.dct`` dictionary text in the footer so the
        shard is self-describing (readers need no external codec).
    """

    def __init__(
        self,
        target: Union[PathLike, BinaryIO],
        engine: Optional[ZSmilesEngine] = None,
        records_per_block: int = DEFAULT_RECORDS_PER_BLOCK,
        backend: Optional[str] = None,
        batch_blocks: int = DEFAULT_BATCH_BLOCKS,
        metadata: Optional[dict] = None,
        embed_dictionary: bool = True,
    ):
        if records_per_block < 1:
            raise StoreError("records_per_block must be >= 1")
        if batch_blocks < 1:
            raise StoreError("batch_blocks must be >= 1")
        self.engine = engine
        self.records_per_block = records_per_block
        self.backend = backend
        self.batch_blocks = batch_blocks
        self.metadata = dict(metadata or {})
        if embed_dictionary and engine is not None:
            self.metadata.setdefault(DICTIONARY_META_KEY, serialization.dumps(engine.table))

        self.path: Optional[Path]
        if hasattr(target, "write"):
            self.path = None
            self._handle: BinaryIO = target  # type: ignore[assignment]
            self._owns_handle = False
            # Readers locate the magic at offset 0, so a shard cannot start
            # mid-file; reject e.g. append-mode handles over non-empty files.
            if self._handle.tell() != 0:
                raise StoreError("target file object must be positioned at offset 0")
        else:
            self.path = Path(target)
            self._handle = open(self.path, "wb")
            self._owns_handle = True

        self._pending_plain: List[str] = []
        self._compressed: List[str] = []
        self._blocks: List[BlockInfo] = []
        self._records = 0
        self._original_bytes = 0
        self._payload_bytes = 0
        self._closed = False
        write_header(self._handle)
        self._cursor = self._handle.tell()

    # ------------------------------------------------------------------ #
    # Adding records
    # ------------------------------------------------------------------ #
    def add(self, record: str) -> None:
        """Queue one plain record for compression and packing."""
        self._check_open()
        if self.engine is None:
            raise StoreError("ShardWriter needs an engine to compress plain records")
        if "\n" in record or "\r" in record:
            raise StoreError("a record must not contain line terminators")
        self._pending_plain.append(record)
        if len(self._pending_plain) >= self.records_per_block * self.batch_blocks:
            self._compress_pending()
            self._drain_full_blocks()

    def add_many(self, records: Iterable[str]) -> None:
        """Queue several plain records (order preserved)."""
        for record in records:
            self.add(record)

    def add_compressed_many(self, records: Sequence[str]) -> None:
        """Append records that are already per-line codec output.

        Ordering is preserved relative to earlier :meth:`add` calls: any
        pending plain records are compressed first.
        """
        self._check_open()
        for record in records:
            if "\n" in record or "\r" in record:
                raise StoreError("a record must not contain line terminators")
        self._compress_pending()
        self._compressed.extend(records)
        self._drain_full_blocks()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> StoreInfo:
        """Flush everything, write the footer and return the shard summary."""
        self._check_open()
        self._compress_pending()
        self._drain_full_blocks()
        if self._compressed:  # final partial block
            self._write_block(self._compressed)
            self._compressed = []
        write_footer(
            self._handle,
            records_per_block=self.records_per_block,
            total_records=self._records,
            blocks=self._blocks,
            metadata=self.metadata,
        )
        self._handle.flush()
        file_bytes = self._handle.tell()
        if self._owns_handle:
            self._handle.close()
        self._closed = True
        return StoreInfo(
            path=self.path,
            records=self._records,
            blocks=len(self._blocks),
            records_per_block=self.records_per_block,
            payload_bytes=self._payload_bytes,
            file_bytes=file_bytes,
            original_bytes=self._original_bytes,
        )

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if self._closed:
            return
        if exc_type is None:
            self.close()
        elif self._owns_handle:
            # A shard cut short has no footer and no reader opens it: a
            # failed pack leaves no file behind (a caller's file object is
            # the caller's to clean up).
            self._handle.close()
            self.path.unlink(missing_ok=True)  # type: ignore[union-attr]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise StoreError("ShardWriter is closed")

    def _compress_pending(self) -> None:
        if not self._pending_plain:
            return
        assert self.engine is not None
        result = self.engine.compress_batch(self._pending_plain, backend=self.backend)
        self._original_bytes += result.stats.original_bytes
        self._compressed.extend(result.records)
        self._pending_plain = []

    def _drain_full_blocks(self) -> None:
        while len(self._compressed) >= self.records_per_block:
            self._write_block(self._compressed[: self.records_per_block])
            self._compressed = self._compressed[self.records_per_block :]

    def _write_block(self, records: List[str]) -> None:
        payload = encode_payload(records)
        self._handle.write(payload)
        self._blocks.append(
            BlockInfo(
                offset=self._cursor,
                length=len(payload),
                records=len(records),
                crc32=payload_crc(payload),
            )
        )
        self._cursor += len(payload)
        self._records += len(records)
        self._payload_bytes += len(payload)


# --------------------------------------------------------------------------- #
# Convenience entry points
# --------------------------------------------------------------------------- #
def pack_records(
    target: Union[PathLike, BinaryIO],
    records: Iterable[str],
    engine: ZSmilesEngine,
    records_per_block: int = DEFAULT_RECORDS_PER_BLOCK,
    backend: Optional[str] = None,
    batch_blocks: int = DEFAULT_BATCH_BLOCKS,
    metadata: Optional[dict] = None,
    embed_dictionary: bool = True,
) -> StoreInfo:
    """Pack an iterable of plain records into one shard at *target*."""
    with ShardWriter(
        target,
        engine=engine,
        records_per_block=records_per_block,
        backend=backend,
        batch_blocks=batch_blocks,
        metadata=metadata,
        embed_dictionary=embed_dictionary,
    ) as writer:
        writer.add_many(records)
        return writer.close()


def pack_compressed_records(
    target: Union[PathLike, BinaryIO],
    compressed_records: Sequence[str],
    records_per_block: int = DEFAULT_RECORDS_PER_BLOCK,
    metadata: Optional[dict] = None,
) -> StoreInfo:
    """Pack records that are already per-line codec output (no engine needed)."""
    with ShardWriter(
        target,
        engine=None,
        records_per_block=records_per_block,
        metadata=metadata,
        embed_dictionary=False,
    ) as writer:
        writer.add_compressed_many(compressed_records)
        return writer.close()


def pack_file(
    input_path: PathLike,
    output_path: Optional[PathLike] = None,
    engine: Optional[ZSmilesEngine] = None,
    records_per_block: int = DEFAULT_RECORDS_PER_BLOCK,
    backend: Optional[str] = None,
    batch_blocks: int = DEFAULT_BATCH_BLOCKS,
    metadata: Optional[dict] = None,
    embed_dictionary: bool = True,
) -> StoreInfo:
    """Pack a line-oriented ``.smi`` file into a ``.zss`` shard.

    Mirrors :meth:`ZSmilesEngine.compress_file`: records are the
    terminator-stripped lines of *input_path*; the default output path swaps
    the suffix for ``.zss``, and the output must not be the input file.
    """
    if engine is None:
        raise StoreError("pack_file needs an engine to compress records")
    from ..core.streaming import read_lines

    input_path = Path(input_path)
    if output_path is None:
        output_path = input_path.with_suffix(STORE_SUFFIX)
    if os.path.exists(output_path) and os.path.samefile(input_path, output_path):
        raise StoreError(f"output {output_path} is the input file")
    return pack_records(
        output_path,
        read_lines(input_path),
        engine,
        records_per_block=records_per_block,
        backend=backend,
        batch_blocks=batch_blocks,
        metadata=metadata,
        embed_dictionary=embed_dictionary,
    )
