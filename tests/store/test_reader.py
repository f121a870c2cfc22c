"""Tests for ``.zss`` reading: block lookup, caching, protocol surface.

A block is loaded (read, checked, split) once per cache miss, but records
decode one by one, the first time each is read; the kernel's
``zsmiles_kernel_lines_total{op="decompress"}`` counter counts those decodes.
"""

from __future__ import annotations

import io

import pytest

from repro.core.random_access import RandomAccessReader
from repro.engine import ZSmilesEngine
from repro.errors import DecompressionError, ManifestError, RandomAccessError, StoreFormatError
from repro.library import CorpusLibrary, LibraryManifest
from repro.store import (
    RecordReader,
    ShardReader,
    open_reader,
    pack_compressed_records,
    pack_records,
)
from repro.engine.kernel import BlockKernel
from repro.store.reader import read_store_records


@pytest.fixture(scope="module")
def packed_library(tmp_path_factory, plain_codec, mixed_corpus_small):
    """A .zss shard of 100 records, 10 per block, with embedded dictionary."""
    directory = tmp_path_factory.mktemp("store")
    corpus = mixed_corpus_small[:100]
    path = directory / "library.zss"
    with ZSmilesEngine.from_codec(plain_codec, backend="serial") as engine:
        info = pack_records(path, corpus, engine, records_per_block=10)
    return path, corpus, info


class TestShardReader:
    def test_len_and_get(self, packed_library):
        path, corpus, _ = packed_library
        with ShardReader(path) as reader:
            assert len(reader) == len(corpus)
            for index in (0, 9, 10, 55, 99):
                assert reader.get(index) == corpus[index]
                assert reader[index] == corpus[index]

    def test_get_out_of_range(self, packed_library):
        path, corpus, _ = packed_library
        with ShardReader(path) as reader:
            with pytest.raises(RandomAccessError):
                reader.get(len(corpus))
            with pytest.raises(RandomAccessError):
                reader.get(-1)

    def test_single_get_touches_single_block(self, packed_library, decoded_lines):
        """The acceptance criterion: get(i) loads only record i's block and
        decodes only record i."""
        path, corpus, info = packed_library
        reader = ShardReader(path)
        assert reader.get(55) == corpus[55]
        assert reader.blocks_decoded == 1
        assert decoded_lines() == 1
        # Only block 5's payload was read — not the whole file.
        block_length = reader.footer.blocks[5].length
        assert reader.bytes_read == block_length
        assert reader.bytes_read < info.payload_bytes
        reader.close()

    def test_block_cache_serves_repeat_lookups(self, packed_library, decoded_lines):
        path, corpus, _ = packed_library
        with ShardReader(path, cache_blocks=2) as reader:
            assert reader.get(11) == corpus[11]
            decoded_once = reader.blocks_decoded
            read_once = reader.bytes_read
            assert decoded_lines() == 1
            assert reader.get(12) == corpus[12]   # same block: cache hit
            assert reader.blocks_decoded == decoded_once
            assert reader.cache_stats()["hits"] == 1
            assert decoded_lines() == 2           # ...that decodes record 12 only
            assert reader.get(11) == corpus[11]   # repeat: decodes nothing
            assert decoded_lines() == 2
            assert reader.get_raw(13) is not None  # same entry: loads nothing
            assert reader.blocks_decoded == decoded_once
            assert reader.bytes_read == read_once
            assert decoded_lines() == 2
            assert reader.cache_stats()["hits"] == 3

    def test_cache_evicts_least_recently_used(self, packed_library):
        path, corpus, _ = packed_library
        with ShardReader(path, cache_blocks=2) as reader:
            reader.get(0)    # block 0
            reader.get(10)   # block 1
            reader.get(20)   # block 2 -> evicts block 0
            assert reader.blocks_decoded == 3
            reader.get(0)    # block 0 must be decoded again
            assert reader.blocks_decoded == 4
            reader.get(20)   # block 2 still cached
            assert reader.blocks_decoded == 4

    def test_iter_all_decodes_each_line_once(self, packed_library, decoded_lines):
        path, corpus, _ = packed_library
        with ShardReader(path) as reader:
            assert reader.get(3) == corpus[3]
            assert reader.get(57) == corpus[57]
            assert list(reader.iter_all()) == corpus
            assert decoded_lines() == len(corpus)
            assert reader.blocks_decoded == reader.block_count
            assert list(reader.iter_all()) == corpus   # every block cached
            assert decoded_lines() == len(corpus)
            assert read_store_records(path) == corpus  # a new reader decodes again
            assert decoded_lines() == 2 * len(corpus)

    def test_whole_block_span_marks_the_block_complete(self, packed_library, decoded_lines):
        """Only a span over a whole block marks it complete (its later ranges
        skip the scan for undecoded records); single gets and partial spans
        leave the mark unset, and a complete block serves without decoding."""
        path, corpus, _ = packed_library
        with ShardReader(path, cache_blocks=16) as reader:
            complete = lambda: [reader._cache.find(b).complete for b in range(3)]
            assert [reader.get(i) for i in range(10)] == corpus[:10]   # all of block 0
            assert reader.slice(12, 20) == corpus[12:20]
            assert reader.slice(20, 25) == corpus[20:25]
            assert complete() == [False, False, False]
            assert reader.slice(0, 25) == corpus[:25]
            assert complete() == [True, True, False]
            before = decoded_lines()
            assert reader.slice(0, 30) == corpus[:30]
            assert complete() == [True, True, True]
            assert decoded_lines() == before + 5   # block 2's records 25-29
            assert reader.slice(0, 30) == corpus[:30]
            assert reader.slice(5, 28) == corpus[5:28]
            assert decoded_lines() == before + 5

    def test_record_served_beside_an_undecodable_one(
        self, packed_library, plain_codec, tmp_path
    ):
        """Records decode on their own: a record that cannot be decoded fails
        alone, with the reference's message, and not its whole block."""
        _, corpus, _ = packed_library
        unknown = next(
            chr(code)
            for code in range(1, 256)
            if chr(code) not in (" ", "\n", "\r")
            and plain_codec.table.pattern_for(chr(code)) is None
        )
        bad = {
            1: plain_codec.compress(corpus[1]) + " ",        # dangling escape
            3: plain_codec.compress(corpus[3]) + unknown,    # unknown symbol
        }
        stored = [bad.get(i, plain_codec.compress(corpus[i])) for i in range(5)]
        path = tmp_path / "hand_built.zss"
        pack_compressed_records(path, stored, records_per_block=len(stored))
        with ShardReader(path, codec=plain_codec) as reader:
            for index in (0, 2, 4):
                assert reader.get(index) == corpus[index]
            for index, record in bad.items():
                with pytest.raises(DecompressionError) as served:
                    reader.get(index)
                with pytest.raises(DecompressionError) as reference:
                    plain_codec.decompress(record)
                assert str(served.value) == str(reference.value)
                assert reader.get_raw(index) == record
            with pytest.raises(DecompressionError):
                list(reader.iter_all())
            assert reader.get(2) == corpus[2]
            assert reader.blocks_decoded == 1

    def test_get_many_and_slice_and_iter(self, packed_library):
        path, corpus, _ = packed_library
        with ShardReader(path) as reader:
            assert reader.get_many([42, 3, 77]) == [corpus[i] for i in (42, 3, 77)]
            assert reader.slice(15, 25) == corpus[15:25]
            assert reader.slice(95, 200) == corpus[95:]      # clamped
            assert list(reader.iter_all()) == corpus
            with pytest.raises(RandomAccessError):
                reader.slice(5, 2)

    @pytest.mark.parametrize(
        "start, stop",
        [(0, 10), (5, 25), (9, 11), (33, 34), (95, 200), (100, 105), (140, 150), (7, 7), (0, 100)],
    )
    def test_blockwise_slice_equals_per_record_gets(self, packed_library, start, stop):
        path, corpus, _ = packed_library
        with ShardReader(path, cache_blocks=2) as reader:
            expected = [reader.get(i) for i in range(start, min(stop, len(corpus)))]
            assert expected == corpus[start:stop]
            assert reader.slice(start, stop) == expected
        with ShardReader(path, cache_blocks=2) as cold:
            assert cold.slice(start, stop) == expected

    @pytest.mark.parametrize("start, stop", [(-1, 3), (5, 2), (-4, -9), (200, 150)])
    def test_slice_rejects_bad_ranges_on_raw_values(self, packed_library, start, stop):
        path, _, _ = packed_library
        with ShardReader(path) as reader:
            with pytest.raises(RandomAccessError) as raised:
                reader.slice(start, stop)
            assert str(raised.value) == f"invalid slice [{start}, {stop})"
            assert reader.blocks_decoded == 0

    @pytest.mark.parametrize("start, stop", [(5, 25), (0, 100), (33, 34), (18, 31)])
    def test_slice_counts_what_single_gets_count(
        self, packed_library, decoded_lines, start, stop
    ):
        """One cache lookup per record served: a miss per block loaded, a hit
        for every other record, and each record decoded once."""
        path, _, _ = packed_library

        def counts(read) -> tuple:
            before = decoded_lines()
            with ShardReader(path, cache_blocks=4) as reader:
                read(reader)
                read(reader)   # the second pass is served from what the first cached
                return (
                    reader.cache_stats(),
                    reader.blocks_decoded,
                    reader.bytes_read,
                    decoded_lines() - before,
                )

        blockwise = counts(lambda reader: reader.slice(start, stop))
        single = counts(lambda reader: [reader.get(i) for i in range(start, stop)])
        assert blockwise == single

    def test_decode_leaves_compression_tables_uncompiled(self, packed_library, plain_codec):
        """Decoding never builds the automaton's compression tables: readers
        only decode, and the transition table is most of a compiled kernel.
        Nor the batch DP's numpy tables, which only a batch compression
        builds."""
        path, corpus, _ = packed_library
        stored = [plain_codec.compress(record) for record in corpus[:10]]
        kernel = BlockKernel(plain_codec)
        assert kernel.decompress_block(stored) == corpus[:10]
        assert kernel.automaton._compiled is None
        assert kernel.automaton._batch is None
        with ShardReader(path) as reader:
            assert reader.slice(0, 30) == corpus[:30]
            assert reader._kernel.automaton._compiled is None
            assert list(reader.iter_all()) == corpus
            assert reader._kernel.automaton._compiled is None
            assert reader._kernel.automaton._batch is None
        assert kernel.compress_block(corpus[:10])[0] == stored   # compiles on first use
        assert kernel.automaton._compiled is not None
        kernel.compress_block(corpus)   # a batch the batch DP parses
        assert kernel.automaton._batch._table is not None

    def test_embedded_dictionary_builds_codec(self, packed_library):
        path, corpus, _ = packed_library
        with ShardReader(path) as reader:   # no codec passed
            assert reader.codec is not None
            assert reader.get(7) == corpus[7]

    def test_explicit_codec_wins(self, packed_library, plain_codec):
        path, corpus, _ = packed_library
        with ShardReader(path, codec=plain_codec) as reader:
            assert reader.get(7) == corpus[7]

    def test_get_raw_returns_stored_records(self, packed_library, plain_codec):
        path, corpus, _ = packed_library
        with ShardReader(path) as reader:
            assert reader.get_raw(13) == plain_codec.compress(corpus[13])

    def test_get_raw_caches_block_payload(self, packed_library):
        path, corpus, _ = packed_library
        with ShardReader(path) as reader:
            first = reader.get_raw(13)
            read_once = reader.bytes_read
            assert reader.get_raw(14) is not None   # same block: no new read
            assert reader.get_raw(13) == first
            assert reader.bytes_read == read_once

    def test_reader_reuse_after_close(self, packed_library):
        path, corpus, _ = packed_library
        reader = ShardReader(path)
        reader.get(1)
        reader.close()
        reader.close()                       # idempotent
        assert reader.get(98) == corpus[98]  # transparently reopens
        reader.close()

    def test_corrupt_block_detected(self, packed_library, tmp_path):
        path, _, _ = packed_library
        data = bytearray(path.read_bytes())
        reader = ShardReader(path)
        offset = reader.footer.blocks[3].offset
        reader.close()
        data[offset] ^= 0xFF
        corrupt = tmp_path / "corrupt.zss"
        corrupt.write_bytes(bytes(data))
        with ShardReader(corrupt) as bad:
            bad.get(0)                       # untouched block still fine
            with pytest.raises(StoreFormatError, match="checksum"):
                bad.get(30)                  # block 3 fails its CRC


class TestCorpusStore:
    """A corpus over ``.zss`` paths is a :class:`CorpusLibrary`: one bare
    shard through ``CorpusLibrary.open``, several over the manifest that
    ``LibraryManifest.from_shards`` builds from their footers."""

    def test_single_shard(self, packed_library):
        path, corpus, _ = packed_library
        with CorpusLibrary.open(path) as store:
            assert len(store) == len(corpus)
            assert store.get(33) == corpus[33]
            assert store.slice(8, 12) == corpus[8:12]

    def test_multiple_shards_concatenate(self, plain_codec, mixed_corpus_small, tmp_path):
        corpus = mixed_corpus_small[:90]
        paths = []
        with ZSmilesEngine.from_codec(plain_codec, backend="serial") as engine:
            for i, chunk in enumerate((corpus[:40], corpus[40:70], corpus[70:])):
                path = tmp_path / f"shard{i}.zss"
                pack_records(path, chunk, engine, records_per_block=16)
                paths.append(path)
        with CorpusLibrary(LibraryManifest.from_shards(paths), tmp_path) as store:
            assert len(store) == len(corpus)
            assert list(store.iter_all()) == corpus
            for index in (0, 39, 40, 69, 70, 89):   # shard boundaries
                assert store.get(index) == corpus[index]
            assert store.get_many([89, 0, 41]) == [corpus[i] for i in (89, 0, 41)]
            with pytest.raises(RandomAccessError):
                store.get(len(corpus))

    def test_empty_shard_list_rejected(self):
        with pytest.raises(ManifestError):
            LibraryManifest.from_shards([])

    def test_read_store_records_helper(self, packed_library):
        path, corpus, _ = packed_library
        assert read_store_records(path) == corpus
        assert read_store_records(io.BytesIO(path.read_bytes())) == corpus


class TestRecordReaderProtocol:
    def test_store_satisfies_protocol(self, packed_library):
        path, _, _ = packed_library
        with CorpusLibrary.open(path) as store:
            assert isinstance(store, RecordReader)
        with ShardReader(path) as reader:
            assert isinstance(reader, RecordReader)

    def test_flat_reader_satisfies_protocol(self, tmp_path):
        from repro.core.streaming import write_lines

        flat = tmp_path / "flat.smi"
        write_lines(flat, ["CCO", "C"])
        with RandomAccessReader(flat) as reader:
            assert isinstance(reader, RecordReader)
            assert reader.get(0) == "CCO"
            assert reader.get_many([1, 0]) == ["C", "CCO"]

    def test_open_reader_dispatches_by_suffix(self, packed_library, tmp_path):
        from repro.core.streaming import write_lines

        path, corpus, _ = packed_library
        store = open_reader(path)
        assert isinstance(store, CorpusLibrary)
        assert store.get(0) == corpus[0]
        store.close()

        flat = tmp_path / "flat.smi"
        write_lines(flat, corpus[:5])
        reader = open_reader(flat)
        assert isinstance(reader, RandomAccessReader)
        assert reader.get(2) == corpus[2]
        reader.close()
