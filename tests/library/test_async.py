"""Async serving surface: async results must equal the sync ones, byte for byte.

Records whose blocks are cached are served on the event loop; only block
loads hop to a worker thread.  The ``hops`` fixture counts those hops.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading

import pytest

from repro.errors import LibraryError, RandomAccessError, ReproError
from repro.library import AsyncCorpusLibrary, CorpusLibrary, pack_library
from repro.server import BackgroundServer, CorpusClient
from repro.store import ShardReader
from repro.store import reader as reader_module


@pytest.fixture(scope="module")
def reference(library_dir):
    with CorpusLibrary.open(library_dir) as lib:
        return list(lib.iter_all())


@pytest.fixture()
def hops(monkeypatch):
    """Every function the async library hands to a pool thread, in order."""
    calls: list = []
    to_thread = asyncio.to_thread

    async def counting(fn, *args, **kwargs):
        calls.append(fn)
        return await to_thread(fn, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", counting)
    return calls


def run(coro):
    return asyncio.run(coro)


def count_shard_readers(monkeypatch) -> list:
    """Every ShardReader constructed from now on."""
    opened: list = []
    init = ShardReader.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(ShardReader, "__init__", recording)
    return opened


class TestAsyncParity:
    def test_get_matches_sync(self, library_dir, reference):
        async def main():
            async with AsyncCorpusLibrary.open(library_dir, pool_size=2) as lib:
                assert len(lib) == len(reference)
                for index in (0, 39, 40, 80, 119):
                    assert await lib.get(index) == reference[index]

        run(main())

    def test_get_many_matches_sync(self, library_dir, reference):
        async def main():
            async with AsyncCorpusLibrary.open(library_dir, pool_size=3) as lib:
                everything = await lib.get_many(range(len(reference)))
                assert everything == reference
                shuffled = [7, 119, 0, 80, 41, 3, 90]
                assert await lib.get_many(shuffled) == [reference[i] for i in shuffled]
                assert await lib.get_many([]) == []

        run(main())

    def test_stream_matches_sync(self, library_dir, reference):
        async def main():
            async with AsyncCorpusLibrary.open(library_dir, pool_size=2) as lib:
                assert [r async for r in lib.stream()] == reference
                assert [r async for r in lib.stream(10, 57, batch_size=7)] == reference[10:57]
                assert [r async for r in lib.stream(100, 10_000)] == reference[100:]

        run(main())

    def test_concurrent_requests_interleave_correctly(self, library_dir, reference):
        """Many in-flight awaits over a small pool still return the right bytes."""

        async def main():
            async with AsyncCorpusLibrary.open(library_dir, pool_size=2) as lib:
                results = await asyncio.gather(
                    *(lib.get(i % len(reference)) for i in range(64))
                )
                assert results == [reference[i % len(reference)] for i in range(64)]

        run(main())


class TestAsyncLifecycle:
    def test_pool_shares_one_cache_budget(self, library_dir, reference):
        """Every load of the pool goes through the one library's one cache."""

        async def main():
            async with AsyncCorpusLibrary.open(
                library_dir, pool_size=3, cache_blocks=2
            ) as lib:
                for _ in range(6):
                    assert await lib.get(0) == reference[0]
                await lib.get_many(range(len(reference)))   # every shard, 3 threads
                shared = lib.library._cache
                assert lib.library.shard(0)._cache.shared is shared
                assert shared.capacity == 2
                assert len(shared) <= 2
                assert shared.hits >= 5          # only the first get decoded

        run(main())

    def test_one_library_parses_each_dictionary_once(
        self, tmp_path, corpus, engine, monkeypatch, dictionary_parses
    ):
        """The pool shares one reader per shard: concurrent batches over a
        4-shard library open 4 shard readers and parse 4 dictionaries."""
        directory = tmp_path / "four.library"
        pack_library(directory, corpus, engine, shards=4, records_per_block=8)
        dictionary_parses.clear()
        opened = count_shard_readers(monkeypatch)

        async def main():
            async with AsyncCorpusLibrary.open(directory, pool_size=4) as lib:
                batches = [range(k, len(corpus), 7) for k in range(7)]
                results = await asyncio.gather(*(lib.get_many(b) for b in batches))
                assert results == [[corpus[i] for i in b] for b in batches]
                assert lib.library.open_shard_count == 4

        run(main())
        assert len(dictionary_parses) == 4
        assert len(opened) == 4

    def test_pool_size_and_validation(self, library_dir):
        async def main():
            async with AsyncCorpusLibrary.open(library_dir, pool_size=3) as lib:
                assert lib.pool_size == 3

        run(main())
        with pytest.raises(LibraryError):
            AsyncCorpusLibrary.open(library_dir, pool_size=0)

    def test_closed_library_rejects_requests(self, library_dir):
        async def main():
            lib = AsyncCorpusLibrary.open(library_dir, pool_size=1)
            await lib.aclose()
            with pytest.raises(LibraryError, match="closed"):
                await lib.get(0)

        run(main())

    def test_stream_rejects_bad_ranges(self, library_dir):
        async def main():
            async with AsyncCorpusLibrary.open(library_dir, pool_size=1) as lib:
                with pytest.raises(RandomAccessError):
                    async for _ in lib.stream(-1):
                        pass
                with pytest.raises(LibraryError):
                    async for _ in lib.stream(0, 10, batch_size=0):
                        pass

        run(main())


class TestCachedReadsOnTheLoop:
    def test_warm_reads_make_no_hop(self, library_dir, reference, hops):
        async def main():
            async with AsyncCorpusLibrary.open(library_dir, pool_size=2) as lib:
                assert await lib.get_many(range(len(reference))) == reference  # warm-up
                assert hops
                hops.clear()
                assert await lib.get(41) == reference[41]
                batch = [7, 119, 0, 80, 41, 41]
                assert await lib.get_many(batch) == [reference[i] for i in batch]
                assert await lib.slice(30, 90) == reference[30:90]
                assert await lib.slice(115, 500) == reference[115:]
                streamed = [r async for r in lib.stream(5, 100, batch_size=16)]
                assert streamed == reference[5:100]
                assert hops == []

        run(main())

    def test_sequential_repeat_get_makes_no_hop(self, library_dir, reference, hops):
        """Once a block is loaded, the next gets of its records are served
        on the loop."""

        async def main():
            async with AsyncCorpusLibrary.open(library_dir, pool_size=4) as lib:
                assert await lib.get(50) == reference[50]
                assert len(hops) == 1
                for _ in range(4):
                    assert await lib.get(50) == reference[50]
                    assert await lib.get(52) == reference[52]   # same block
                assert len(hops) == 1
                stats = lib.cache_stats()
                assert (stats["hits"], stats["misses"]) == (8, 1)

        run(main())

    def test_mixed_batch_hops_only_for_uncached_records(
        self, library_dir, reference, hops, monkeypatch
    ):
        async def main():
            async with AsyncCorpusLibrary.open(library_dir, pool_size=2) as lib:
                assert await lib.get(0) == reference[0]       # caches records 0-7
                assert await lib.get(40) == reference[40]     # caches records 40-47
                hops.clear()
                requested: list = []
                get_many = CorpusLibrary.get_many

                def spy(reader, indices):
                    requested.append(list(indices))
                    return get_many(reader, indices)

                monkeypatch.setattr(CorpusLibrary, "get_many", spy)
                batch = [3, 90, 41, 17, 5, 91, 44, 60]
                assert await lib.get_many(batch) == [reference[i] for i in batch]
                assert [i for part in requested for i in part] == [90, 17, 91, 60]
                assert len(hops) == len(requested) == 2

        run(main())

    def test_closed_library_rejects_cached_reads(self, library_dir, reference):
        async def main():
            lib = AsyncCorpusLibrary.open(library_dir, pool_size=1)
            assert await lib.slice(0, 8) == reference[:8]    # block 0 cached
            await lib.aclose()
            for read in (lib.get(0), lib.get_many([0, 1]), lib.get_many([]), lib.slice(0, 4)):
                with pytest.raises(LibraryError, match="closed"):
                    await read
            with pytest.raises(LibraryError, match="closed"):
                async for _ in lib.stream(0, 4):
                    pass

        run(main())

    def test_huge_cached_batch_yields_to_the_loop(self, library_dir, reference, hops):
        """A batch served on the loop lets other tasks run between chunks."""

        async def main():
            async with AsyncCorpusLibrary.open(library_dir, pool_size=2) as lib:
                await lib.get_many(range(len(reference)))
                hops.clear()
                ran: list = []

                async def bystander():
                    ran.append(True)

                task = asyncio.ensure_future(bystander())
                indices = [i % len(reference) for i in range(5000)]
                records = await lib.get_many(indices)
                assert ran, "no other task ran while the batch was served"
                assert records == [reference[i] for i in indices]
                assert hops == []
                await task

        run(main())

    def test_loop_reads_race_pool_loads_and_evictions(self, library_dir, reference, hops):
        """The loop serves cached gets and slices while more pool threads than
        cores load and evict blocks of a 2-block cache; with a tiny switch
        interval every interleaving of loop and thread is tried, and every
        record must equal the sync reference."""
        workers = (os.cpu_count() or 2) + 2
        total = len(reference)
        failures: list = []
        served_on_loop = [0]

        async def main():
            async with AsyncCorpusLibrary.open(
                library_dir, pool_size=workers, cache_blocks=2
            ) as lib:

                async def churn(worker: int) -> None:
                    for step in range(30):
                        index = (8 * step * (worker + 1) + worker) % total
                        assert await lib.get(index) == reference[index]
                        batch = [(index + 8 * k) % total for k in range(4)]
                        assert await lib.get_many(batch) == [reference[i] for i in batch]

                async def hot() -> None:
                    for step in range(150):
                        index = step % 12
                        before = len(hops)
                        assert await lib.get(index) == reference[index]
                        served_on_loop[0] += len(hops) == before
                        assert await lib.slice(4, 12) == reference[4:12]
                        assert await lib.get_many([index, 11, 0]) == [
                            reference[index], reference[11], reference[0]
                        ]

                await asyncio.gather(hot(), *(churn(w) for w in range(workers)))

        def run_loop() -> None:
            try:
                asyncio.run(main())
            except BaseException as exc:  # pragma: no cover - failure reporting
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=run_loop, daemon=True)
            thread.start()
            thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not failures, failures
        assert served_on_loop[0] > 0


def track_shard_files(monkeypatch) -> list:
    """Every shard file a ShardReader opens from now on."""
    files: list = []

    class Tracked(reader_module._ShardFile):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            files.append(self)

    monkeypatch.setattr(reader_module, "_ShardFile", Tracked)
    return files


class TestCloseRaces:
    @staticmethod
    def close_during_a_held_load(library_dir, monkeypatch, cancel):
        """Hold a cold ``get(45)`` in its worker thread, optionally cancel
        the task awaiting it, close(), then let the load go on: it reopens
        its shard.  Returns the read's outcome, the library and every shard
        file opened; ``asyncio.run`` returns after the thread has ended."""
        files = track_shard_files(monkeypatch)
        entered, release = threading.Event(), threading.Event()
        load = ShardReader._load_payload

        def held(reader, block):
            entered.set()
            assert release.wait(timeout=30)
            return load(reader, block)

        monkeypatch.setattr(ShardReader, "_load_payload", held)

        async def main():
            lib = AsyncCorpusLibrary.open(library_dir, pool_size=2)
            read = asyncio.ensure_future(lib.get(45))
            assert await asyncio.to_thread(entered.wait, 30)
            if cancel:
                read.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await read
            lib.close()
            release.set()
            return (None if cancel else await read), lib.library

        got, library = run(main())
        return got, library, files

    @staticmethod
    def assert_no_file_open(library, files):
        opened = [reader for reader in library._readers if reader is not None]
        assert len(opened) == 1
        assert all(reader._file is None for reader in opened)
        assert len(files) == 2                      # the first open, then the reopen
        for file in files:
            assert file.handle.closed

    def test_close_during_a_load_leaves_no_file_open(self, library_dir, reference, monkeypatch):
        """close() while a cold load waits in its worker thread: the load
        then reopens its shard, and the re-close after it closes that file
        again, so no reader keeps a handle or a file it let go of."""
        got, library, files = self.close_during_a_held_load(library_dir, monkeypatch, cancel=False)
        assert got == reference[45]
        self.assert_no_file_open(library, files)

    def test_cancelled_load_leaves_no_file_open(self, library_dir, monkeypatch):
        """As above, with the awaiting task cancelled before close(): the
        task's cleanup runs at the cancellation, before close(), so the
        re-close must run in the worker thread, after the load."""
        _, library, files = self.close_during_a_held_load(library_dir, monkeypatch, cancel=True)
        self.assert_no_file_open(library, files)


@pytest.fixture(scope="module")
def server(library_dir):
    with BackgroundServer(library_dir, readers=2, stream_batch=16) as srv:
        yield srv


def outcome(read):
    """What a read returns, or the class and message of what it raises."""
    try:
        return read()
    except ReproError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "start, stop",
    [
        pytest.param(125, 130, id="past-the-end"),
        pytest.param(120, 120, id="at-the-end"),
        pytest.param(-1, 4, id="negative-start"),
        pytest.param(10, 5, id="inverted"),
        pytest.param(200, 150, id="inverted-past-the-end"),
        pytest.param(7, 7, id="empty"),
        pytest.param(30, 50, id="across-block-and-shard"),
        pytest.param(100, 1000, id="clamped"),
    ],
)
def test_range_reads_agree_across_tiers(library_dir, reference, server, start, stop):
    """Sync slice, async slice and stream, and the HTTP range stream give the
    same records, or raise the same class with the same message."""
    with CorpusLibrary.open(library_dir) as lib:
        expected = outcome(lambda: lib.slice(start, stop))
    if isinstance(expected, list):
        assert expected == reference[start:stop]
    else:
        assert expected == (RandomAccessError, f"invalid slice [{start}, {stop})")

    async def async_outcomes():
        async with AsyncCorpusLibrary.open(library_dir, pool_size=2) as lib:
            results = []
            for _ in range(2):  # cold, then served from the cache
                try:
                    results.append(await lib.slice(start, stop))
                except ReproError as exc:
                    results.append((type(exc), str(exc)))
                try:
                    results.append([r async for r in lib.stream(start, stop, batch_size=8)])
                except ReproError as exc:
                    results.append((type(exc), str(exc)))
            return results

    assert run(async_outcomes()) == [expected] * 4
    with CorpusClient(server.url, timeout=10.0) as client:
        assert outcome(lambda: client.slice(start, stop)) == expected

