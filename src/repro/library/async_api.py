"""Async serving surface: :class:`AsyncCorpusLibrary`.

An :class:`AsyncCorpusLibrary` wraps one
:class:`~repro.library.CorpusLibrary`.  A record whose block is already in
the block cache is served on the event loop: the lookup takes microseconds,
where handing it to a thread costs far more.  Only block loads, which do
file I/O, run on worker threads (``asyncio.to_thread``), at most
``pool_size`` at once: the pool bounds concurrent block loads over the one
library, so a burst of requests queues instead of thundering the disk.
The shard readers read blocks positionally, so those loads do not
serialize on a seek position.  Results are byte-identical to the sync
path — the parity tests pin ``await lib.get(i) == store.get(i)`` for every
record.

Every read probes the cache first.  ``get`` serves a cached record on the
loop (decoding it there on its first read); ``get_many`` serves its cached
records on the loop, yielding to other tasks between chunks of
:data:`DEFAULT_STREAM_BATCH` records, and fans only the rest out over the
pool; ``slice`` serves a range on the loop when all its blocks are cached,
and otherwise reads it in one hop; ``stream`` is a loop over ``slice``.
The probe does no I/O: a shard the library has not opened counts as not
cached.

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
from pathlib import Path
from typing import AsyncIterator, Callable, List, Optional, Sequence, TypeVar, Union

from ..core.codec import ZSmilesCodec
from ..errors import LibraryError
from ..store.reader import DEFAULT_CACHE_BLOCKS, checked_range
from .corpus import CorpusLibrary

PathLike = Union[str, Path]
T = TypeVar("T")

#: Default bound on concurrent block loads (worker threads) over one library.
DEFAULT_POOL_SIZE = 4
#: Default records fetched per :meth:`AsyncCorpusLibrary.stream` batch, and
#: the records ``get_many`` serves on the loop before it yields.
DEFAULT_STREAM_BATCH = 1024


class AsyncCorpusLibrary:
    """Concurrent, awaitable record serving over one :class:`CorpusLibrary`.

    At most *pool_size* block loads run on worker threads at once.
    """

    def __init__(self, library: CorpusLibrary, pool_size: int = DEFAULT_POOL_SIZE):
        if pool_size < 1:
            raise LibraryError("pool_size must be >= 1")
        self.library = library
        self.pool_size = pool_size
        self._semaphore = asyncio.Semaphore(pool_size)
        self._closed = False

    @classmethod
    def open(
        cls,
        source: PathLike,
        codec: Optional[ZSmilesCodec] = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    ) -> "AsyncCorpusLibrary":
        """Open *source* (library directory / manifest / ``.zss``) once.

        Up to *pool_size* threads load blocks of the one library at once;
        they share its ``cache_blocks`` LRU budget, so a block loaded (or a
        record decoded) for one request is a cache hit for all.
        """
        if pool_size < 1:
            raise LibraryError("pool_size must be >= 1")
        return cls(CorpusLibrary.open(source, codec=codec, cache_blocks=cache_blocks), pool_size)

    # ------------------------------------------------------------------ #
    # The wrapped library
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.library)

    @property
    def manifest(self):
        """The library's manifest."""
        return self.library.manifest

    def dictionary_identity(self):
        """The dictionary identity the manifest pins, or ``None``."""
        return self.library.dictionary_identity()

    def cache_stats(self) -> dict:
        """The library's shared block cache counters."""
        return self.library.cache_stats()

    def quarantine_stats(self) -> dict:
        """The library's quarantined-block counters."""
        return self.library.quarantine_stats()

    def _check_open(self) -> None:
        if self._closed:
            raise LibraryError("AsyncCorpusLibrary is closed")

    async def _call(self, fn: Callable[[], T]) -> T:
        """Run a blocking library read in a worker thread, *pool_size* at most."""
        self._check_open()
        async with self._semaphore:
            # Re-checked after the (possibly long) semaphore wait: a call
            # queued behind a full pool must not reopen files that close()
            # released in the meantime.
            self._check_open()
            return await asyncio.to_thread(self._load, fn)

    def _load(self, fn: Callable[[], T]) -> T:
        """Run *fn* in its worker thread, closing what it reopened after close()."""
        try:
            return fn()
        finally:
            # A close() that ran while fn was loading may have been undone
            # by a shard lazily reopening its file.  The re-close runs here,
            # in the thread, after the load: the awaiting task may be long
            # gone (cancelled), and its own cleanup ran at the cancellation.
            if self._closed:
                self.library.close()

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    async def get(self, index: int) -> str:
        """The record at global *index*."""
        self._check_open()
        record = self.library.probe(index)
        if record is None:
            record = await self._call(lambda: self.library.get(index))
        return record

    async def get_many(self, indices: Sequence[int]) -> List[str]:
        """Fetch several records, preserving request order.

        Cached records are served on the loop, which is yielded between
        chunks of :data:`DEFAULT_STREAM_BATCH` records.  The rest are split
        into *pool_size* contiguous chunks loaded concurrently.
        """
        indices = list(indices)
        self._check_open()
        probe = self.library.probe
        records: List[Optional[str]] = []
        for chunk in range(0, len(indices), DEFAULT_STREAM_BATCH):
            if chunk:
                await asyncio.sleep(0)
                self._check_open()
            records += map(probe, indices[chunk : chunk + DEFAULT_STREAM_BATCH])
        missing = [position for position, record in enumerate(records) if record is None]
        if missing:
            wanted = [indices[position] for position in missing]
            size = -(-len(wanted) // self.pool_size)  # ceil division
            parts = await asyncio.gather(
                *(
                    self._call(lambda c=wanted[i : i + size]: self.library.get_many(c))
                    for i in range(0, len(wanted), size)
                )
            )
            loaded = (record for part in parts for record in part)
            for position, record in zip(missing, loaded):
                records[position] = record
        return records  # type: ignore[return-value]

    async def slice(self, start: int, stop: int) -> List[str]:
        """Records ``start`` (inclusive) to ``stop`` (exclusive, clamped).

        Served on the loop when every block of the range is cached (it is
        then bounded by what the cache holds); otherwise read block by
        block in one hop.
        """
        self._check_open()
        records = self.library.probe_slice(start, stop)
        if records is None:
            records = await self._call(lambda: self.library.slice(start, stop))
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
        """Close the library (idempotent)."""
        self._closed = True
        self.library.close()

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
        source, codec=codec, pool_size=pool_size, cache_blocks=cache_blocks
    )
