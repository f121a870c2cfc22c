"""Async serving surface: :class:`AsyncCorpusLibrary`.

Block decode and file I/O are blocking, so the async surface runs them on
worker threads (``asyncio.to_thread``) over a *bounded pool* of independent
:class:`~repro.library.facade.CorpusLibrary` readers.  Each pooled reader
owns its file handles, so concurrent requests never contend on a shared
seek position; the pool size bounds both thread fan-out and open file
handles.  Results are byte-identical to the sync path — the parity tests
pin ``await lib.get(i) == store.get(i)`` for every record.

Typical use inside a request-serving loop::

    async with AsyncCorpusLibrary.open("corpus.library", pool_size=8) as lib:
        smiles = await lib.get(123_456)
        batch = await lib.get_many(candidate_indices)   # fans out over the pool
        async for record in lib.stream(0, 10_000):       # paced block reads
            ...

An instance binds to the running event loop on first use (its internal
semaphore is an :class:`asyncio.Semaphore`); create one per loop.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path
from typing import AsyncIterator, Callable, List, Optional, Sequence, TypeVar, Union

from ..core.codec import ZSmilesCodec
from ..errors import LibraryError, RandomAccessError
from ..store.reader import DEFAULT_CACHE_BLOCKS, BlockCache
from .facade import CorpusLibrary

PathLike = Union[str, Path]
T = TypeVar("T")

#: Default number of pooled readers (and therefore concurrent blocking reads).
DEFAULT_POOL_SIZE = 4
#: Default records fetched per :meth:`AsyncCorpusLibrary.stream` batch.
DEFAULT_STREAM_BATCH = 1024


class AsyncCorpusLibrary:
    """Concurrent, awaitable record serving over a pool of library readers."""

    def __init__(self, readers: Sequence[CorpusLibrary]):
        if not readers:
            raise LibraryError("AsyncCorpusLibrary needs at least one reader")
        self._readers: List[CorpusLibrary] = list(readers)
        self._idle: List[CorpusLibrary] = list(self._readers)
        self._idle_lock = threading.Lock()
        self._semaphore = asyncio.Semaphore(len(self._readers))
        self._closed = False

    @classmethod
    def open(
        cls,
        source: PathLike,
        codec: Optional[ZSmilesCodec] = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        verify_checksums: bool = True,
        use_mmap: bool = False,
    ) -> "AsyncCorpusLibrary":
        """Open *source* (library directory / manifest / ``.zss``) *pool_size* times.

        The pooled readers hold independent file handles (so blocking reads
        never contend on a seek position) but share one ``cache_blocks``
        LRU budget: a block loaded (or a record decoded) by any reader is a
        cache hit for all.
        """
        if pool_size < 1:
            raise LibraryError("pool_size must be >= 1")
        shared_cache = BlockCache(cache_blocks)
        readers: List[CorpusLibrary] = []
        try:
            for _ in range(pool_size):
                readers.append(
                    CorpusLibrary.open(
                        source,
                        codec=codec,
                        cache_blocks=cache_blocks,
                        verify_checksums=verify_checksums,
                        use_mmap=use_mmap,
                        cache=shared_cache,
                    )
                )
        except Exception:
            for reader in readers:
                reader.close()
            raise
        return cls(readers)

    # ------------------------------------------------------------------ #
    # Pool plumbing
    # ------------------------------------------------------------------ #
    @property
    def pool_size(self) -> int:
        return len(self._readers)

    def __len__(self) -> int:
        return len(self._readers[0])

    @property
    def manifest(self):
        """The pooled readers' shared manifest (they all open the same source)."""
        return self._readers[0].manifest

    def dictionary_identity(self):
        """The dictionary identity the shared manifest pins, or ``None``."""
        return self._readers[0].dictionary_identity()

    def cache_stats(self) -> dict:
        """Shared block cache counters across the whole reader pool.

        :meth:`open` hands every pooled reader the same :class:`BlockCache`,
        so the first reader's snapshot *is* the pool aggregate.
        """
        return self._readers[0].cache_stats()

    def quarantine_stats(self) -> dict:
        """Quarantined-block counters aggregated across the reader pool.

        Quarantine state is per-reader (each pooled reader owns its shard
        handles), so the pool aggregate sums every reader's counters and
        unions the per-shard damaged-block lists.
        """
        quarantined_union: dict = {}
        hits = 0
        for reader in self._readers:
            stats = reader.quarantine_stats()
            hits += stats["quarantine_hits"]
            for name, blocks in stats["shards"].items():
                merged = quarantined_union.setdefault(name, set())
                merged.update(blocks)
        shards = {name: sorted(blocks) for name, blocks in quarantined_union.items()}
        quarantined = sum(len(blocks) for blocks in shards.values())
        return {
            "quarantined_blocks": quarantined,
            "total_blocks_quarantined": quarantined,
            "quarantine_hits": hits,
            "shards": shards,
        }

    async def _call(self, fn: Callable[[CorpusLibrary], T]) -> T:
        """Run a blocking reader operation on a pooled reader in a thread."""
        if self._closed:
            raise LibraryError("AsyncCorpusLibrary is closed")
        async with self._semaphore:
            # Re-checked after the (possibly long) semaphore wait: a call
            # queued behind a full pool must not reopen handles that close()
            # released in the meantime.
            if self._closed:
                raise LibraryError("AsyncCorpusLibrary is closed")
            with self._idle_lock:
                reader = self._idle.pop()
            try:
                return await asyncio.to_thread(fn, reader)
            finally:
                # A close() racing an uncancellable worker thread may have
                # been undone by the reader lazily reopening its handles;
                # re-close here so nothing leaks past the pool's shutdown.
                if self._closed:
                    reader.close()
                with self._idle_lock:
                    self._idle.append(reader)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    async def get(self, index: int) -> str:
        """The record at global *index*."""
        return await self._call(lambda reader: reader.get(index))

    async def get_many(self, indices: Sequence[int]) -> List[str]:
        """Fetch several records concurrently, preserving request order.

        The request is split into contiguous chunks fanned out over the
        reader pool, so one large batch saturates every pooled reader.
        """
        indices = list(indices)
        if not indices:
            return []
        chunk_size = -(-len(indices) // self.pool_size)  # ceil division
        chunks = [indices[i : i + chunk_size] for i in range(0, len(indices), chunk_size)]
        parts = await asyncio.gather(
            *(self._call(lambda reader, c=chunk: reader.get_many(c)) for chunk in chunks)
        )
        return [record for part in parts for record in part]

    async def stream(
        self,
        start: int = 0,
        stop: Optional[int] = None,
        batch_size: int = DEFAULT_STREAM_BATCH,
    ) -> AsyncIterator[str]:
        """Yield records ``start`` … ``stop`` (exclusive), batch by batch.

        Each batch is one blocking ``slice`` on a pooled reader; between
        batches the event loop is free to interleave other requests.
        """
        if batch_size < 1:
            raise LibraryError("batch_size must be >= 1")
        total = len(self)
        stop = total if stop is None else min(stop, total)
        if start < 0 or stop < start:
            raise RandomAccessError(f"invalid stream range [{start}, {stop})")
        cursor = start
        while cursor < stop:
            upper = min(cursor + batch_size, stop)
            batch = await self._call(lambda reader, a=cursor, b=upper: reader.slice(a, b))
            for record in batch:
                yield record
            cursor = upper

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every pooled reader (idempotent)."""
        self._closed = True
        for reader in self._readers:
            reader.close()

    async def aclose(self) -> None:
        """Async alias of :meth:`close`."""
        self.close()

    async def __aenter__(self) -> "AsyncCorpusLibrary":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self.close()


def open_async_reader(
    source: Union[PathLike, Sequence[str]],
    codec: Optional[ZSmilesCodec] = None,
    pool_size: int = DEFAULT_POOL_SIZE,
    cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    use_mmap: bool = False,
):
    """The async counterpart of :func:`repro.store.open_reader`.

    An ``http://`` URL opens as an
    :class:`~repro.server.AsyncCorpusClient`; several URLs (a sequence, or
    one comma-separated string) open as an
    :class:`~repro.server.AsyncFailoverCorpusClient` that round-robins and
    fails over across the replicas; anything else opens as an
    :class:`AsyncCorpusLibrary` over the local layout (the server decodes
    for URLs, so *codec* only applies locally).  Every return type is an
    async context manager with ``get`` / ``get_many`` / ``sample`` and an
    async record stream, so async consumers accept any corpus the same way
    blocking ones do.
    """
    # Imported lazily — repro.server sits on top of this module.
    from ..server.protocol import split_replica_urls

    replica_urls = split_replica_urls(source)
    if replica_urls:
        if len(replica_urls) > 1:
            from ..server.async_client import AsyncFailoverCorpusClient

            return AsyncFailoverCorpusClient(replica_urls)
        from ..server.async_client import AsyncCorpusClient

        return AsyncCorpusClient(replica_urls[0])
    return AsyncCorpusLibrary.open(
        source,
        codec=codec,
        pool_size=pool_size,
        cache_blocks=cache_blocks,
        use_mmap=use_mmap,
    )
