"""Async serving surface: :class:`AsyncCorpusLibrary`.

A record whose block is already in the shared block cache is served on the
event loop: the lookup takes microseconds, where handing it to a thread
costs far more.  Only block loads, which do file I/O, run on worker threads
(``asyncio.to_thread``) over a *bounded pool* of independent
:class:`~repro.library.facade.CorpusLibrary` readers.  Each pooled reader
owns its file handles, so concurrent loads never contend on a shared seek
position; the pool size bounds both thread fan-out and open file handles.
Results are byte-identical to the sync path — the parity tests pin
``await lib.get(i) == store.get(i)`` for every record.

Every read probes the cache first.  ``get`` serves a cached record on the
loop (decoding it there on its first read); ``get_many`` serves its cached
records on the loop, yielding to other tasks between chunks of
:data:`DEFAULT_STREAM_BATCH` records, and fans only the rest out over the
pool; ``slice`` serves each shard's part of a range on the loop when all
its blocks are cached, and sends the other parts to the pool in one hop;
``stream`` is a loop over ``slice``.  The probe does no I/O: a shard no
pooled reader has opened counts as not cached.

Typical use inside a request-serving loop::

    async with AsyncCorpusLibrary.open("corpus.library", pool_size=8) as lib:
        smiles = await lib.get(123_456)
        batch = await lib.get_many(candidate_indices)   # misses fan out over the pool
        async for record in lib.stream(0, 10_000):       # paced range reads
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
from ..errors import LibraryError
from ..store.reader import (
    DEFAULT_CACHE_BLOCKS,
    BlockCache,
    checked_range,
    quarantine_rollup,
    split_range,
)
from .facade import CorpusLibrary

PathLike = Union[str, Path]
T = TypeVar("T")

#: Default number of pooled readers (and therefore concurrent blocking reads).
DEFAULT_POOL_SIZE = 4
#: Default records fetched per :meth:`AsyncCorpusLibrary.stream` batch, and
#: the records ``get_many`` serves on the loop before it yields.
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
        self._starts = [shard.start for shard in self._readers[0].manifest.shards]

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
        stats = [reader.quarantine_stats() for reader in self._readers]
        return quarantine_rollup(
            (shard for s in stats for shard in s["shards"].items()),
            sum(s["quarantine_hits"] for s in stats),
        )

    def _check_open(self) -> None:
        if self._closed:
            raise LibraryError("AsyncCorpusLibrary is closed")

    def _cached(self, probe: Callable[..., Optional[T]], *args: int) -> Optional[T]:
        """``probe(reader, *args)`` through each pooled reader until one serves it.

        Runs on the loop, on busy and idle readers alike: a probe touches only
        the shared cache and the re-entrant decode path.  The readers open
        shards lazily, each on its own, so a block cached by one may belong
        to a shard another has never opened; trying every reader serves it
        whichever one loaded it.
        """
        for reader in self._readers:
            result = probe(reader, *args)
            if result is not None:
                return result
        return None

    async def _call(self, fn: Callable[[CorpusLibrary], T]) -> T:
        """Run a blocking reader operation on a pooled reader in a thread."""
        self._check_open()
        async with self._semaphore:
            # Re-checked after the (possibly long) semaphore wait: a call
            # queued behind a full pool must not reopen handles that close()
            # released in the meantime.
            self._check_open()
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
        self._check_open()
        record = self._cached(CorpusLibrary.probe, index)
        if record is None:
            record = await self._call(lambda reader: reader.get(index))
        return record

    async def get_many(self, indices: Sequence[int]) -> List[str]:
        """Fetch several records, preserving request order.

        Cached records are served on the loop, which is yielded between
        chunks of :data:`DEFAULT_STREAM_BATCH` records.  The rest are split
        into contiguous chunks fanned out over the reader pool, so a batch
        of misses keeps every pooled reader busy.
        """
        indices = list(indices)
        self._check_open()
        records: List[Optional[str]] = []
        for chunk in range(0, len(indices), DEFAULT_STREAM_BATCH):
            if chunk:
                await asyncio.sleep(0)
                self._check_open()
            for index in indices[chunk : chunk + DEFAULT_STREAM_BATCH]:
                records.append(self._cached(CorpusLibrary.probe, index))
        missing = [position for position, record in enumerate(records) if record is None]
        if missing:
            wanted = [indices[position] for position in missing]
            size = -(-len(wanted) // self.pool_size)  # ceil division
            parts = await asyncio.gather(
                *(
                    self._call(lambda reader, c=wanted[i : i + size]: reader.get_many(c))
                    for i in range(0, len(wanted), size)
                )
            )
            loaded = (record for part in parts for record in part)
            for position, record in zip(missing, loaded):
                records[position] = record
        return records  # type: ignore[return-value]

    async def slice(self, start: int, stop: int) -> List[str]:
        """Records ``start`` (inclusive) to ``stop`` (exclusive, clamped).

        The range is probed shard by shard, since each shard may have been
        opened by a different pooled reader.  A shard's part whose blocks
        are all cached is served on the loop (it is bounded by what the
        cache holds); the other parts go to the pool in one hop and are
        read block by block there.
        """
        self._check_open()
        start, stop = checked_range(start, stop, len(self))
        bounds = [
            (self._starts[shard_no] + lo, self._starts[shard_no] + hi)
            for shard_no, lo, hi in split_range(self._starts, start, stop)
        ]
        parts = [self._cached(CorpusLibrary.probe_slice, lo, hi) for lo, hi in bounds]
        missing = [bound for bound, part in zip(bounds, parts) if part is None]
        if missing:
            loaded = iter(
                await self._call(lambda reader: [reader.slice(lo, hi) for lo, hi in missing])
            )
            parts = [next(loaded) if part is None else part for part in parts]
        records: List[str] = []
        for part in parts:
            records += part  # type: ignore[operator]
        return records

    async def stream(
        self,
        start: int = 0,
        stop: Optional[int] = None,
        batch_size: int = DEFAULT_STREAM_BATCH,
    ) -> AsyncIterator[str]:
        """Yield records ``start`` … ``stop`` (exclusive, clamped), batch by batch.

        Each batch is one :meth:`slice`; between batches the event loop is
        free to interleave other requests.  The range is judged and clamped
        as :meth:`slice` judges it.
        """
        if batch_size < 1:
            raise LibraryError("batch_size must be >= 1")
        self._check_open()
        total = len(self)
        start, stop = checked_range(start, total if stop is None else stop, total)
        for cursor in range(start, stop, batch_size):
            for record in await self.slice(cursor, min(cursor + batch_size, stop)):
                yield record

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
