"""Packing corpora into sharded libraries: :class:`LibraryWriter`.

A library pack splits the corpus into N contiguous chunks, packs each chunk
into its own ``.zss`` shard through the
:class:`~repro.engine.ZSmilesEngine` batch surface, and writes the
``library.json`` manifest recording every shard's global record range.

Because records are compressed one line at a time, the shard split never
changes the stored bytes: a 4-shard library holds exactly the records a
single-shard pack would, just cut at different file boundaries — which is
what the cross-shard parity tests pin.

Shards pack one after another, and every writer batch of every shard goes
through one backend, which :meth:`~repro.engine.ZSmilesEngine.pack_backend`
chooses once for the whole pack.  With ``backend="auto"`` (the default) the
pack's first batch is compressed in-process and timed, and the rest go to a
pool of ``shard_jobs`` worker processes (``cli pack --shard-jobs N``; by
default the engine's worker count) only if that pool repays its start on
the records left; otherwise the whole pack runs in-process.  An explicit
backend is obeyed.  Any pool is shut down when the pack ends, and the
output is byte-identical whichever way it ran (pinned by the
parallel-packing parity tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..dictionary.serialization import DictionaryIdentity
from ..engine.engine import ZSmilesEngine
from ..errors import LibraryError
from ..store.format import DICTIONARY_HASH_META_KEY, STORE_SUFFIX
from ..store.writer import DEFAULT_BATCH_BLOCKS, DEFAULT_RECORDS_PER_BLOCK, StoreInfo, pack_records
from .manifest import DICTIONARY_IDENTITY_KEY, LibraryManifest

PathLike = Union[str, Path]

#: Shard file-name pattern inside a library directory.
SHARD_NAME_FORMAT = "shard-{:04d}" + STORE_SUFFIX


@dataclass(frozen=True)
class LibraryInfo:
    """Summary of one packed library.

    Attributes
    ----------
    directory:
        The library directory.
    manifest_path:
        Where ``library.json`` was written.
    manifest:
        The written manifest.
    shards:
        Per-shard :class:`~repro.store.writer.StoreInfo` summaries.
    """

    directory: Path
    manifest_path: Path
    manifest: LibraryManifest
    shards: Tuple[StoreInfo, ...]

    @property
    def records(self) -> int:
        return sum(info.records for info in self.shards)

    @property
    def blocks(self) -> int:
        return sum(info.blocks for info in self.shards)

    @property
    def payload_bytes(self) -> int:
        return sum(info.payload_bytes for info in self.shards)

    @property
    def file_bytes(self) -> int:
        return sum(info.file_bytes for info in self.shards)

    @property
    def original_bytes(self) -> int:
        return sum(info.original_bytes for info in self.shards)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def ratio(self) -> float:
        """Payload bytes over raw bytes (lower is better)."""
        if self.original_bytes == 0:
            return 1.0
        return self.payload_bytes / self.original_bytes


def split_counts(total: int, shards: int) -> List[int]:
    """Balanced contiguous chunk sizes: ``total`` records over ``shards`` shards.

    The first ``total % shards`` shards get one extra record; shard count is
    clamped so no shard is empty (a 3-record corpus packs into at most 3
    shards).
    """
    if shards < 1:
        raise LibraryError("shard count must be >= 1")
    shards = max(1, min(shards, total)) if total else 1
    base, extra = divmod(total, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


class LibraryWriter:
    """Write one sharded library: N ``.zss`` shards plus ``library.json``.

    Parameters
    ----------
    directory:
        Library directory (created if missing).
    engine:
        Engine compressing the records.
    shards:
        Target shard count (clamped so no shard is empty).
    records_per_block:
        Block granularity of every shard.
    backend / batch_blocks:
        Engine batching knobs, as for :class:`~repro.store.writer.ShardWriter`.
    metadata:
        Extra key/value pairs stored in the manifest metadata.
    embed_dictionary:
        Embed the engine's dictionary in every shard footer so each shard —
        and therefore the library — is self-describing.
    shard_jobs:
        Worker processes of the pool the pack compresses on, used only
        when that pool would repay its start (``None`` = the engine's
        worker count; 1 = always in-process); see
        :meth:`~repro.engine.ZSmilesEngine.pack_backend`.  The bytes are
        the same whichever way the pack runs.
    """

    def __init__(
        self,
        directory: PathLike,
        engine: ZSmilesEngine,
        shards: int = 1,
        records_per_block: int = DEFAULT_RECORDS_PER_BLOCK,
        backend: Optional[str] = None,
        batch_blocks: int = DEFAULT_BATCH_BLOCKS,
        metadata: Optional[Dict[str, object]] = None,
        embed_dictionary: bool = True,
        shard_jobs: Optional[int] = None,
    ):
        if shards < 1:
            raise LibraryError("shard count must be >= 1")
        if shard_jobs is not None and shard_jobs < 1:
            raise LibraryError("shard_jobs must be >= 1")
        self.directory = Path(directory)
        self.engine = engine
        self.shards = shards
        self.records_per_block = records_per_block
        self.backend = backend
        self.batch_blocks = batch_blocks
        self.metadata = dict(metadata or {})
        self.embed_dictionary = embed_dictionary
        self.shard_jobs = shard_jobs

    def pack(self, records: Iterable[str]) -> LibraryInfo:
        """Pack *records* into the library and write its manifest."""
        records = list(records)
        counts = split_counts(len(records), self.shards)
        self.directory.mkdir(parents=True, exist_ok=True)
        paths = [
            self.directory / SHARD_NAME_FORMAT.format(shard_no)
            for shard_no in range(len(counts))
        ]
        identity = DictionaryIdentity.of(self.engine.table)
        shard_metadata = [
            {
                "shard": shard_no,
                "shard_count": len(counts),
                DICTIONARY_HASH_META_KEY: identity.hash,
            }
            for shard_no in range(len(counts))
        ]
        infos = []
        cursor = 0
        with self.engine.pack_backend(len(records), self.shard_jobs, self.backend) as backend:
            for path, count, meta in zip(paths, counts, shard_metadata):
                infos.append(
                    pack_records(
                        path,
                        records[cursor : cursor + count],
                        self.engine,
                        records_per_block=self.records_per_block,
                        backend=backend,
                        batch_blocks=self.batch_blocks,
                        metadata=meta,
                        embed_dictionary=self.embed_dictionary,
                    )
                )
                cursor += count
        metadata = dict(self.metadata)
        metadata.setdefault("dictionary_embedded", self.embed_dictionary)
        metadata.setdefault(DICTIONARY_IDENTITY_KEY, identity.to_json_obj())
        manifest = LibraryManifest.from_shards(paths, metadata=metadata, root=self.directory)
        manifest_path = manifest.save(self.directory)
        return LibraryInfo(
            directory=self.directory,
            manifest_path=manifest_path,
            manifest=manifest,
            shards=tuple(infos),
        )


def pack_library(
    directory: PathLike,
    records: Iterable[str],
    engine: ZSmilesEngine,
    shards: int = 1,
    records_per_block: int = DEFAULT_RECORDS_PER_BLOCK,
    backend: Optional[str] = None,
    batch_blocks: int = DEFAULT_BATCH_BLOCKS,
    metadata: Optional[Dict[str, object]] = None,
    embed_dictionary: bool = True,
    shard_jobs: Optional[int] = None,
) -> LibraryInfo:
    """Pack an iterable of plain records into a sharded library at *directory*.

    *shard_jobs* is the worker count of the pool the pack compresses on,
    used only when that pool would repay its start; otherwise the pack runs
    in-process (see :class:`LibraryWriter`).
    """
    return LibraryWriter(
        directory,
        engine,
        shards=shards,
        records_per_block=records_per_block,
        backend=backend,
        batch_blocks=batch_blocks,
        metadata=metadata,
        embed_dictionary=embed_dictionary,
        shard_jobs=shard_jobs,
    ).pack(records)


def pack_library_file(
    input_path: PathLike,
    directory: Optional[PathLike] = None,
    engine: Optional[ZSmilesEngine] = None,
    shards: int = 1,
    records_per_block: int = DEFAULT_RECORDS_PER_BLOCK,
    backend: Optional[str] = None,
    batch_blocks: int = DEFAULT_BATCH_BLOCKS,
    metadata: Optional[Dict[str, object]] = None,
    embed_dictionary: bool = True,
    shard_jobs: Optional[int] = None,
) -> LibraryInfo:
    """Pack a line-oriented ``.smi`` file into a sharded library.

    The default library directory swaps the input suffix for ``.library``
    (``data.smi`` → ``data.library/``).
    """
    if engine is None:
        raise LibraryError("pack_library_file needs an engine to compress records")
    from ..core.streaming import read_lines

    input_path = Path(input_path)
    if directory is None:
        directory = input_path.with_suffix(".library")
    return pack_library(
        directory,
        read_lines(input_path),
        engine,
        shards=shards,
        records_per_block=records_per_block,
        backend=backend,
        batch_blocks=batch_blocks,
        metadata=metadata,
        embed_dictionary=embed_dictionary,
        shard_jobs=shard_jobs,
    )
