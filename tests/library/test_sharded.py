"""Sharded serving: parity with the single-shard reader, lazy opens, caching.

The acceptance criterion lives here: records read through
``CorpusLibrary`` — any shard count, a library or a bare ``.zss`` — are
byte-identical to a ``ShardReader`` over the whole corpus in
one shard.
"""

from __future__ import annotations

import pytest

from repro.errors import LibraryError, ManifestError, RandomAccessError
from repro.library import CorpusLibrary, LibraryManifest, pack_library
from repro.store import RecordReader, ShardReader, open_reader


@pytest.fixture(scope="module")
def reference(single_shard_path, corpus):
    """Every record as served by the reference single-shard ShardReader."""
    with ShardReader(single_shard_path) as reader:
        records = list(reader.iter_all())
    assert len(records) == len(corpus)
    return records


class TestCrossShardParity:
    @pytest.mark.parametrize("shards", [1, 3, 5, 120])
    def test_byte_identical_to_single_shard(
        self, tmp_path_factory, corpus, engine, reference, shards
    ):
        directory = tmp_path_factory.mktemp("parity") / f"lib-{shards}"
        info = pack_library(directory, corpus, engine, shards=shards, records_per_block=8)
        assert info.shard_count == min(shards, len(corpus))
        with CorpusLibrary.open(directory) as store:
            assert len(store) == len(reference)
            assert list(store.iter_all()) == reference
            assert store.get_many(range(len(reference))) == reference
            assert [store.get(i) for i in (0, 7, 8, 59, 119)] == [
                reference[i] for i in (0, 7, 8, 59, 119)
            ]
            assert store.slice(37, 51) == reference[37:51]

    def test_raw_records_match_single_shard(self, library_dir, single_shard_path):
        with CorpusLibrary.open(library_dir) as store, ShardReader(
            single_shard_path
        ) as ref:
            for index in (0, 39, 40, 80, 119):
                assert store.get_raw(index) == ref.get_raw(index)

    def test_facade_parity(self, library_dir, reference):
        with CorpusLibrary.open(library_dir) as lib:
            assert len(lib) == len(reference)
            assert lib.get_many(range(len(reference))) == reference
            assert lib[64] == reference[64]

    def test_facade_over_bare_zss(self, single_shard_path, reference):
        """A lone .zss opens as a synthetic one-shard library."""
        with CorpusLibrary.open(single_shard_path) as lib:
            assert lib.shard_count == 1
            assert list(lib.iter_all()) == reference

    def test_bare_zss_is_opened_once(self, single_shard_path, reference, dictionary_parses):
        """The one-shard manifest comes from the reader the library keeps:
        one footer read and one dictionary parse serve the open and the
        reads after it.  The manifest pins no identity."""
        with CorpusLibrary.open(single_shard_path) as lib:
            assert lib.open_shard_count == 1
            assert lib.get(0) == reference[0]
            assert lib.manifest.shards[0].file_bytes == single_shard_path.stat().st_size
            assert lib.dictionary_identity() is None
            assert lib.path == single_shard_path
        assert len(dictionary_parses) == 1


class TestServingBehavior:
    def test_out_of_range(self, library_dir):
        with CorpusLibrary.open(library_dir) as store:
            with pytest.raises(RandomAccessError):
                store.get(len(store))
            with pytest.raises(RandomAccessError):
                store.get(-1)
            with pytest.raises(RandomAccessError):
                store.slice(-1, 4)

    def test_lazy_shard_open(self, library_dir, reference):
        store = CorpusLibrary.open(library_dir)
        try:
            assert len(store) == len(reference)      # routing needs no file I/O
            assert store.open_shard_count == 0
            assert store.get(100) == reference[100]  # lives in shard 2
            assert store.open_shard_count == 1
            assert store.get(0) == reference[0]      # opens shard 0
            assert store.open_shard_count == 2
        finally:
            store.close()

    def test_shared_lru_budget_across_shards(self, library_dir, reference):
        """N shards share ONE cache budget instead of hoarding one each."""
        with CorpusLibrary.open(library_dir, cache_blocks=2) as store:
            assert store.cache_stats()["capacity"] == 2
            # Touch one block in every shard, then some more blocks.
            for index in (0, 40, 80, 8, 48, 88):
                assert store.get(index) == reference[index]
            assert store.open_shard_count == 3
            assert store.cache_stats()["cached_blocks"] <= 2

    def test_cache_hits_counted_across_shards(self, library_dir, reference):
        with CorpusLibrary.open(library_dir) as store:
            assert store.get(0) == reference[0]
            assert store.get(1) == reference[1]  # same block -> shared-cache hit
            assert store.cache_stats()["hits"] >= 1

    @pytest.mark.parametrize(
        "start, stop",
        [(30, 50), (39, 41), (0, 120), (7, 9), (79, 80), (115, 200), (120, 125), (130, 140), (8, 8)],
    )
    def test_blockwise_slice_equals_per_record_gets(self, library_dir, reference, start, stop):
        """Ranges across block (8) and shard (40) boundaries, clamped past the end."""
        with CorpusLibrary.open(library_dir, cache_blocks=2) as store:
            expected = [store.get(i) for i in range(start, min(stop, len(store)))]
            assert expected == reference[start:stop]
            assert store.slice(start, stop) == expected
            assert store.probe_slice(start, stop) in (None, expected)
        with CorpusLibrary.open(library_dir) as lib:
            assert lib.slice(start, stop) == expected
            assert lib.probe_slice(start, stop) == expected   # all cached by now

    @pytest.mark.parametrize("start, stop", [(-1, 4), (10, 5), (200, 150)])
    def test_slice_rejects_bad_ranges_on_raw_values(self, library_dir, start, stop):
        with CorpusLibrary.open(library_dir) as store:
            for read in (store.slice, store.probe_slice):
                with pytest.raises(RandomAccessError) as raised:
                    read(start, stop)
                assert str(raised.value) == f"invalid slice [{start}, {stop})"
            assert store.open_shard_count == 0

    @pytest.mark.parametrize("start, stop", [(30, 50), (0, 120), (39, 41), (16, 24)])
    def test_slice_counts_what_single_gets_count(
        self, library_dir, decoded_lines, start, stop
    ):
        def counts(read) -> tuple:
            before = decoded_lines()
            with CorpusLibrary.open(library_dir, cache_blocks=4) as store:
                read(store)
                read(store)
                opened = store.open_shard_count
                return (
                    store.cache_stats(),
                    opened,
                    sum(store.shard(k).blocks_decoded for k in range(store.shard_count)),
                    decoded_lines() - before,
                )

        blockwise = counts(lambda store: store.slice(start, stop))
        single = counts(lambda store: [store.get(i) for i in range(start, stop)])
        assert blockwise == single

    def test_probes_serve_only_cached_blocks_of_opened_shards(self, library_dir, reference):
        """A probe does no I/O: an unopened shard or an uncached block is a
        miss that counts nothing, and a served record counts one hit."""
        with CorpusLibrary.open(library_dir, cache_blocks=4) as store:
            assert store.probe(41) is None
            assert store.probe_slice(40, 48) is None
            assert store.open_shard_count == 0
            assert store.get(41) == reference[41]           # opens shard 1, loads a block
            assert store.probe(47) == reference[47]
            assert store.probe(48) is None                  # next block: not cached
            assert store.probe_slice(40, 49) is None
            assert store.probe_slice(40, 48) == reference[40:48]
            assert store.probe_slice(0, 0) == []
            assert store.cache_stats()["hits"] == 1 + 8
            assert store.cache_stats()["misses"] == 1
            assert store.open_shard_count == 1

    def test_manifest_record_count_mismatch_detected(self, library_dir, tmp_path):
        manifest = LibraryManifest.load(library_dir)
        lying = LibraryManifest(
            shards=tuple(
                type(shard)(
                    name=shard.name,
                    start=shard.start * 2,
                    records=shard.records * 2,
                    blocks=shard.blocks,
                    records_per_block=shard.records_per_block,
                    file_bytes=shard.file_bytes,
                )
                for shard in manifest.shards
            ),
            metadata=manifest.metadata,
        )
        store = CorpusLibrary(lying, library_dir)
        with pytest.raises(ManifestError, match="promises"):
            store.get(0)

    def test_close_is_idempotent_and_reopens(self, library_dir, reference):
        store = CorpusLibrary.open(library_dir)
        assert store.get(5) == reference[5]
        store.close()
        store.close()
        assert store.get(5) == reference[5]  # path-backed shards reopen on demand
        store.close()


class TestProtocolIntegration:
    def test_satisfies_record_reader(self, library_dir, single_shard_path):
        for source in (library_dir, single_shard_path):
            with CorpusLibrary.open(source) as lib:
                assert isinstance(lib, RecordReader)

    def test_open_reader_dispatches_manifests(self, library_dir, reference):
        for source in (library_dir, library_dir / "library.json"):
            with open_reader(source) as reader:
                assert isinstance(reader, CorpusLibrary)
                assert reader.get(77) == reference[77]

    def test_open_errors(self, tmp_path):
        with pytest.raises(LibraryError):
            CorpusLibrary.open(tmp_path / "missing.zss")
        with pytest.raises(LibraryError, match="cannot open"):
            CorpusLibrary.open(tmp_path)             # a directory without a manifest
        with pytest.raises(ManifestError):
            CorpusLibrary.open(tmp_path / "library.json")
