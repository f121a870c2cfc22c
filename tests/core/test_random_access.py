"""Tests for the random-access line index and reader."""

from __future__ import annotations

import pytest

from repro.core.random_access import INDEX_SUFFIX, LineIndex, RandomAccessReader
from repro.core.streaming import write_lines
from repro.engine import ZSmilesEngine
from repro.errors import RandomAccessError


@pytest.fixture()
def compressed_library(tmp_path, trained_codec, mixed_corpus_small):
    smi = tmp_path / "library.smi"
    zsmi = tmp_path / "library.zsmi"
    corpus = mixed_corpus_small[:100]
    write_lines(smi, corpus)
    ZSmilesEngine.from_codec(trained_codec).compress_file(smi, zsmi)
    return zsmi, corpus


class TestLineIndex:
    def test_build_counts_lines(self, compressed_library):
        zsmi, corpus = compressed_library
        index = LineIndex.build(zsmi)
        assert index.line_count == len(corpus)

    def test_offsets_monotonic_and_end_at_file_size(self, compressed_library):
        zsmi, _ = compressed_library
        index = LineIndex.build(zsmi)
        assert index.offsets[0] == 0
        assert all(a < b for a, b in zip(index.offsets, index.offsets[1:]))
        assert index.offsets[-1] == zsmi.stat().st_size

    def test_span_out_of_range(self, compressed_library):
        zsmi, corpus = compressed_library
        index = LineIndex.build(zsmi)
        with pytest.raises(RandomAccessError):
            index.span(len(corpus))
        with pytest.raises(RandomAccessError):
            index.span(-1)

    def test_save_load_roundtrip(self, compressed_library, tmp_path):
        zsmi, _ = compressed_library
        index = LineIndex.build(zsmi)
        path = tmp_path / "library.idx"
        index.save(path)
        restored = LineIndex.load(path)
        assert restored.offsets == index.offsets

    def test_default_path_appends_suffix(self):
        assert str(LineIndex.default_path("data/lib.zsmi")).endswith(".zsmi" + INDEX_SUFFIX)

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_text("# header\nnot-a-number\n")
        with pytest.raises(RandomAccessError):
            LineIndex.load(bad)

    def test_load_rejects_non_monotonic(self, tmp_path):
        bad = tmp_path / "bad2.idx"
        bad.write_text("0\n10\n5\n")
        with pytest.raises(RandomAccessError):
            LineIndex.load(bad)

    def test_load_rejects_missing_zero(self, tmp_path):
        bad = tmp_path / "bad3.idx"
        bad.write_text("3\n10\n")
        with pytest.raises(RandomAccessError):
            LineIndex.load(bad)


class TestRandomAccessReader:
    def test_single_record_fetch_matches_sequential(self, compressed_library, trained_codec):
        zsmi, corpus = compressed_library
        with RandomAccessReader(zsmi, codec=trained_codec) as reader:
            for line_no in (0, 7, 42, len(corpus) - 1):
                assert reader.line(line_no) == trained_codec.preprocess(corpus[line_no])

    def test_raw_line_returns_compressed_text(self, compressed_library, trained_codec):
        zsmi, corpus = compressed_library
        with RandomAccessReader(zsmi, codec=trained_codec) as reader:
            raw = reader.raw_line(3)
            assert trained_codec.decompress(raw) == trained_codec.preprocess(corpus[3])

    def test_reader_without_codec_returns_stored_text(self, compressed_library):
        zsmi, _ = compressed_library
        with RandomAccessReader(zsmi) as reader:
            assert reader.raw_line(0) == reader.line(0)

    def test_getitem_and_len(self, compressed_library, trained_codec):
        zsmi, corpus = compressed_library
        with RandomAccessReader(zsmi, codec=trained_codec) as reader:
            assert len(reader) == len(corpus)
            assert reader[5] == trained_codec.preprocess(corpus[5])

    def test_lines_preserves_request_order(self, compressed_library, trained_codec):
        zsmi, corpus = compressed_library
        with RandomAccessReader(zsmi, codec=trained_codec) as reader:
            got = reader.lines([9, 2, 30])
            assert got == [trained_codec.preprocess(corpus[i]) for i in (9, 2, 30)]

    def test_slice(self, compressed_library, trained_codec):
        zsmi, corpus = compressed_library
        with RandomAccessReader(zsmi, codec=trained_codec) as reader:
            got = reader.slice(10, 15)
            assert got == [trained_codec.preprocess(s) for s in corpus[10:15]]

    def test_slice_clamps_to_length(self, compressed_library, trained_codec):
        zsmi, corpus = compressed_library
        with RandomAccessReader(zsmi, codec=trained_codec) as reader:
            assert len(reader.slice(len(corpus) - 2, len(corpus) + 10)) == 2

    def test_invalid_slice_rejected(self, compressed_library):
        zsmi, _ = compressed_library
        with RandomAccessReader(zsmi) as reader:
            with pytest.raises(RandomAccessError):
                reader.slice(5, 2)

    def test_iter_all_matches_corpus(self, compressed_library, trained_codec):
        zsmi, corpus = compressed_library
        with RandomAccessReader(zsmi, codec=trained_codec) as reader:
            assert list(reader.iter_all()) == [trained_codec.preprocess(s) for s in corpus]

    def test_prebuilt_index_reused(self, compressed_library, trained_codec):
        zsmi, corpus = compressed_library
        index = LineIndex.build(zsmi)
        with RandomAccessReader(zsmi, index=index, codec=trained_codec) as reader:
            assert reader.line(1) == trained_codec.preprocess(corpus[1])

    def test_close_is_idempotent(self, compressed_library):
        zsmi, _ = compressed_library
        reader = RandomAccessReader(zsmi)
        reader.open()
        reader.close()
        reader.close()


class TestLineIndexLoadEdgeCases:
    """Malformed persisted-index inputs (the flat fallback must fail loudly)."""

    def test_load_rejects_empty_file(self, tmp_path):
        empty = tmp_path / "empty.idx"
        empty.write_text("")
        with pytest.raises(RandomAccessError):
            LineIndex.load(empty)

    def test_load_rejects_comment_only_file(self, tmp_path):
        bad = tmp_path / "comments.idx"
        bad.write_text("# header\n# another comment\n")
        with pytest.raises(RandomAccessError):
            LineIndex.load(bad)

    def test_load_rejects_float_offsets(self, tmp_path):
        bad = tmp_path / "float.idx"
        bad.write_text("0\n1.5\n3\n")
        with pytest.raises(RandomAccessError):
            LineIndex.load(bad)

    def test_load_accepts_equal_consecutive_offsets(self, tmp_path):
        # Zero-length records (bare newlines) produce non-strict monotonicity.
        path = tmp_path / "flat.idx"
        path.write_text("0\n5\n5\n9\n")
        index = LineIndex.load(path)
        assert index.line_count == 3
        assert index.span(1) == (5, 5)

    def test_load_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "gaps.idx"
        path.write_text("# header\n0\n\n4\n# trailing comment\n9\n")
        assert LineIndex.load(path).offsets == [0, 4, 9]

    def test_empty_file_index_has_zero_lines(self, tmp_path):
        data = tmp_path / "empty.smi"
        data.write_text("")
        index = LineIndex.build(data)
        assert index.line_count == 0
        with pytest.raises(RandomAccessError):
            index.span(0)


class TestReaderEdgeCases:
    def test_crlf_records_are_stripped(self, tmp_path):
        data = tmp_path / "crlf.smi"
        data.write_bytes(b"CCO\r\nc1ccccc1\r\nC\r\n")
        with RandomAccessReader(data) as reader:
            assert len(reader) == 3
            assert reader.line(0) == "CCO"
            assert reader.line(1) == "c1ccccc1"
            assert reader.line(2) == "C"

    def test_final_record_without_newline(self, tmp_path):
        data = tmp_path / "nonl.smi"
        data.write_bytes(b"CCO\nC")
        with RandomAccessReader(data) as reader:
            assert len(reader) == 2
            assert reader.line(1) == "C"

    def test_lines_with_out_of_order_and_duplicate_indices(self, compressed_library,
                                                           trained_codec):
        zsmi, corpus = compressed_library
        with RandomAccessReader(zsmi, codec=trained_codec) as reader:
            got = reader.lines([50, 0, 50, 99, 0])
            want = [trained_codec.preprocess(corpus[i]) for i in (50, 0, 50, 99, 0)]
            assert got == want

    def test_slice_fully_past_end_is_empty(self, compressed_library):
        zsmi, corpus = compressed_library
        with RandomAccessReader(zsmi) as reader:
            assert reader.slice(len(corpus), len(corpus) + 5) == []

    def test_empty_slice_at_zero(self, compressed_library):
        zsmi, _ = compressed_library
        with RandomAccessReader(zsmi) as reader:
            assert reader.slice(0, 0) == []

    def test_reader_reuse_after_close(self, compressed_library, trained_codec):
        zsmi, corpus = compressed_library
        reader = RandomAccessReader(zsmi, codec=trained_codec)
        first = reader.line(0)
        reader.close()
        # A closed reader transparently reopens on the next access.
        assert reader.line(0) == first
        reader.close()

    def test_get_aliases_match_line_api(self, compressed_library, trained_codec):
        zsmi, corpus = compressed_library
        with RandomAccessReader(zsmi, codec=trained_codec) as reader:
            assert reader.get(4) == reader.line(4)
            assert reader.get_many([7, 1]) == reader.lines([7, 1])
