"""Serving hardening: configurable cache bounds, cache counters, concurrent reads.

These suites guard the serving path underneath ``repro.library``: the LRU
capacity must honor whatever bound the constructor (and ``cli query
--cache-blocks``) configures, and one reader hammered from many threads —
while another closes it — must serve exactly what serial reads serve: the
invariant the async layer builds on.
"""

from __future__ import annotations

import io
import sys
import threading

import pytest

from repro.engine import ZSmilesEngine
from repro.library import CorpusLibrary
from repro.store import BlockCache, ShardReader, pack_records
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import set_registry


@pytest.fixture(scope="module")
def packed(tmp_path_factory, plain_codec, mixed_corpus_small):
    """A .zss shard of 96 records, 8 per block (12 blocks)."""
    directory = tmp_path_factory.mktemp("serving")
    corpus = mixed_corpus_small[:96]
    path = directory / "serving.zss"
    with ZSmilesEngine.from_codec(plain_codec, backend="serial") as engine:
        pack_records(path, corpus, engine, records_per_block=8)
    return path, corpus


class TestConfigurableCacheBound:
    @pytest.mark.parametrize("capacity", [1, 2, 5])
    def test_eviction_honors_configured_bound(self, packed, capacity):
        """Touch every block; the cache never holds more than its capacity."""
        path, corpus = packed
        with ShardReader(path, cache_blocks=capacity) as reader:
            for index in range(len(corpus)):
                assert reader.get(index) == corpus[index]
                assert len(reader._cache) <= capacity
            assert len(reader._cache) == min(capacity, reader.block_count)
            # Every block beyond the retained window was evicted and must be
            # decoded again on revisit.
            decoded = reader.blocks_decoded
            assert reader.get(0) == corpus[0]
            assert reader.blocks_decoded == decoded + (
                0 if capacity >= reader.block_count else 1
            )

    def test_corpus_store_passes_capacity_down(self, packed):
        path, _ = packed
        with CorpusLibrary.open(path, cache_blocks=3) as store:
            assert store.shard(0).cache_stats()["capacity"] == 3

    def test_block_cache_rejects_zero_capacity(self):
        from repro.errors import StoreFormatError

        with pytest.raises(StoreFormatError):
            BlockCache(0)


class TestCacheCounters:
    """Hit/miss surfacing: the numbers ``/stats`` and ``query --verbose`` report."""

    def test_block_cache_stats_snapshot(self):
        cache = BlockCache(2)
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "capacity": 2,
            "cached_blocks": 0,
            "evictions": 0,
            "hit_rate": 0.0,
        }
        assert cache.get("a") is None
        cache.put("a", ["x"])
        assert cache.get("a") == ["x"]
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "capacity": 2,
            "cached_blocks": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_cache_view_reports_shared_aggregates(self):
        from repro.store import BlockCacheView

        shared = BlockCache(4)
        view_a = BlockCacheView(shared, "a")
        view_b = BlockCacheView(shared, "b")
        view_a.put(0, ["ra"])
        assert view_a.get(0) == ["ra"]
        assert view_b.get(0) is None  # namespaced: b's block 0 is not a's
        assert view_a.stats() == view_b.stats() == shared.stats()
        assert shared.stats()["hits"] == 1 and shared.stats()["misses"] == 1

    def test_shard_reader_counts_hits_and_misses(self, packed):
        path, corpus = packed
        with ShardReader(path, cache_blocks=4) as reader:
            assert reader.cache_stats()["hits"] == 0 and reader.cache_stats()["misses"] == 0
            reader.get(0)  # cold: miss
            reader.get(1)  # same block: hit
            reader.get(8)  # next block: miss
            assert reader.cache_stats()["misses"] == 2
            assert reader.cache_stats()["hits"] == 1
            assert reader.cache_stats()["cached_blocks"] == 2

    def test_kill_switch_silences_read_path_counters(self, packed):
        """Counter children resolved once, at construction, are still no-ops
        under a disabled registry (the ``ZSMILES_TELEMETRY=off`` switch)."""
        path, corpus = packed
        registry = MetricsRegistry(enabled=False)
        set_registry(registry)
        try:
            with ShardReader(path, cache_blocks=4) as reader:
                assert reader.get(0) == corpus[0]   # miss: load, decode
                assert reader.get(1) == corpus[1]   # hit: decode
                stats = reader.cache_stats()
                assert (stats["hits"], stats["misses"]) == (1, 1)
        finally:
            set_registry(None)
        values = {
            (item["name"], tuple(series["values"])): series.get("value", series.get("count"))
            for item in registry.snapshot()["metrics"]
            for series in item["series"]
        }
        assert ("zsmiles_cache_lookups_total", ("hit",)) in values
        assert ("zsmiles_kernel_lines_total", ("decompress",)) in values
        assert ("zsmiles_store_reads_total", ("handle",)) in values
        assert not any(values.values()), values

    def test_library_surfaces_shared_cache_counters(self, packed, plain_codec, tmp_path):
        from repro.library import CorpusLibrary, pack_library

        _, corpus = packed
        directory = tmp_path / "counters.library"
        with ZSmilesEngine.from_codec(plain_codec, backend="serial") as engine:
            pack_library(directory, corpus, engine, shards=2, records_per_block=8)
        with CorpusLibrary.open(directory) as library:
            library.get(0)   # cold block in shard 0: miss
            library.get(1)   # same block: hit
            library.get(90)  # cold block in shard 1: miss (same shared cache)
            stats = library.cache_stats()
            assert stats["misses"] == 2
            assert stats["hits"] == 1
            assert stats["cached_blocks"] == 2


class TestConcurrentReads:
    def test_threads_match_serial_reads(self, packed):
        """Hammer ONE library from many threads; results must equal serial.

        A tiny cache forces constant eviction/refill while every thread
        reads blocks of the same file — the races the positional reads and
        the thread-safe BlockCache exist to prevent.
        """
        path, corpus = packed
        store = CorpusLibrary.open(path, cache_blocks=2)
        serial = [store.get(i) for i in range(len(corpus))]
        assert serial == corpus

        workers = 8
        rounds = 4
        errors: list = []
        results: list = [None] * workers

        def hammer(worker: int) -> None:
            try:
                mine = []
                for round_no in range(rounds):
                    # Offset stride per worker: all threads walk all records
                    # but in different orders, maximizing cache contention.
                    for step in range(len(corpus)):
                        index = (step * (worker + 1) + round_no) % len(corpus)
                        mine.append((index, store.get(index)))
                results[worker] = mine
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store.close()

        assert not errors, errors
        for mine in results:
            assert mine is not None
            for index, record in mine:
                assert record == serial[index]

    def test_threads_sharing_decoded_records_see_whole_records(self, packed, plain_codec):
        """Threads fill the same cached blocks record by record while others
        walk whole blocks; with a tiny switch interval every interleaving of
        those fills is tried, and each read must still be the whole record."""
        path, corpus = packed
        stored = [plain_codec.compress(record) for record in corpus]
        reader = ShardReader(path, cache_blocks=3)
        errors: list = []

        def hammer(worker: int) -> None:
            try:
                for step in range(3 * len(corpus)):
                    index = (step * (2 * worker + 1)) % len(corpus)
                    if worker % 3 == 0:
                        assert reader.get(index) == corpus[index]
                    elif worker % 3 == 1:
                        assert reader.get_raw(index) == stored[index]
                        assert reader.get(index) == corpus[index]
                    elif step % len(corpus) == 0:
                        assert list(reader.iter_all()) == corpus
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(9)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            reader.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

    def test_get_many_under_concurrency(self, packed):
        path, corpus = packed
        indices = [(i * 7) % len(corpus) for i in range(256)]
        expected = [corpus[i] for i in indices]
        store = CorpusLibrary.open(path, cache_blocks=2)
        try:
            outcomes: list = [None] * 4

            def fetch(slot: int) -> None:
                outcomes[slot] = store.get_many(indices)

            threads = [threading.Thread(target=fetch, args=(s,)) for s in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(outcome == expected for outcome in outcomes)
        finally:
            store.close()

    def test_threads_share_a_file_object(self, packed):
        """A caller's file object has one seek position: its reads take the
        reader's lock, so threads still each get their own block's bytes."""
        path, corpus = packed
        reader = ShardReader(io.BytesIO(path.read_bytes()), cache_blocks=1)
        errors: list = []

        def hammer(offset: int) -> None:
            try:
                for step in range(len(corpus)):
                    index = (step * 5 + offset * 17) % len(corpus)
                    assert reader.get(index) == corpus[index]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        reader.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert reader.quarantine_stats()["quarantined_blocks"] == 0

    def test_close_during_positional_reads(self, packed, tmp_path):
        """Threads load distinct blocks of one shard while another thread
        closes it over and over and opens a decoy file.  A descriptor
        released under a read would surface as an error (EBADF) or, once
        reused by the decoy, as another file's bytes failing the CRC check
        and quarantining a good block."""
        path, corpus = packed
        decoy = tmp_path / "decoy.bin"
        decoy.write_bytes(bytes(range(256)) * (path.stat().st_size // 256 + 1))
        reader = ShardReader(path, cache_blocks=1)
        per, blocks = reader.records_per_block, reader.block_count
        workers = 4
        done = threading.Event()
        errors: list = []
        closes = [0]

        def load(worker: int) -> None:
            try:
                for step in range(3000):
                    block = (worker + workers * step) % blocks   # this worker's blocks
                    index = block * per + step % per
                    assert reader.get(index) == corpus[index]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def close_repeatedly() -> None:
            try:
                while not done.is_set():
                    reader.close()
                    with open(decoy, "rb") as handle:
                        handle.read(1)
                    closes[0] += 1
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            closer = threading.Thread(target=close_repeatedly)
            loaders = [threading.Thread(target=load, args=(w,)) for w in range(workers)]
            closer.start()
            for thread in loaders:
                thread.start()
            for thread in loaders:
                thread.join(timeout=120)
            done.set()
            closer.join(timeout=30)
        finally:
            done.set()
            sys.setswitchinterval(interval)
            reader.close()
        assert not closer.is_alive()
        assert not any(thread.is_alive() for thread in loaders)
        assert not errors, errors
        assert closes[0] > 0
        assert reader.quarantine_stats()["quarantined_blocks"] == 0
        assert reader._file is None
