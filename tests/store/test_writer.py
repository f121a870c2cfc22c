"""Tests for ``.zss`` packing through the engine."""

from __future__ import annotations

import io

import pytest

from repro.engine import ZSmilesEngine
from repro.errors import StoreError
from repro.store import (
    CorpusStore,
    ShardWriter,
    pack_compressed_records,
    pack_file,
    pack_records,
)
from repro.store.format import read_footer


@pytest.fixture(scope="module")
def plain_engine(plain_codec) -> ZSmilesEngine:
    """A serial engine over the no-preprocessing session codec."""
    return ZSmilesEngine.from_codec(plain_codec, backend="serial")


class TestShardWriter:
    def test_roundtrip_through_store(self, plain_engine, mixed_corpus_small):
        corpus = mixed_corpus_small[:120]
        buffer = io.BytesIO()
        info = pack_records(buffer, corpus, plain_engine, records_per_block=16)
        assert info.records == len(corpus)
        assert info.blocks == (len(corpus) + 15) // 16
        buffer.seek(0)
        with CorpusStore(buffer) as store:
            assert list(store.iter_all()) == corpus

    def test_partial_final_block(self, plain_engine, mixed_corpus_small):
        corpus = mixed_corpus_small[:21]
        buffer = io.BytesIO()
        info = pack_records(buffer, corpus, plain_engine, records_per_block=8)
        assert info.blocks == 3
        footer = read_footer(buffer)
        assert [b.records for b in footer.blocks] == [8, 8, 5]

    def test_batching_does_not_change_bytes(self, plain_engine, mixed_corpus_small):
        corpus = mixed_corpus_small[:64]
        outputs = []
        for batch_blocks in (1, 3, 64):
            buffer = io.BytesIO()
            with ShardWriter(
                buffer, engine=plain_engine, records_per_block=4,
                batch_blocks=batch_blocks,
            ) as writer:
                writer.add_many(corpus)
                writer.close()
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_process_backend_matches_serial(self, plain_codec, mixed_corpus_small):
        corpus = mixed_corpus_small[:80]
        serial_buf, process_buf = io.BytesIO(), io.BytesIO()
        with ZSmilesEngine.from_codec(plain_codec, backend="serial") as engine:
            pack_records(serial_buf, corpus, engine, records_per_block=16)
        with ZSmilesEngine.from_codec(
            plain_codec, backend="process", jobs=2, chunk_size=16
        ) as engine:
            pack_records(
                process_buf, corpus, engine, records_per_block=16, backend="process"
            )
        assert process_buf.getvalue() == serial_buf.getvalue()

    def test_empty_store(self, plain_engine):
        buffer = io.BytesIO()
        info = pack_records(buffer, [], plain_engine)
        assert info.records == 0 and info.blocks == 0
        buffer.seek(0)
        with CorpusStore(buffer) as store:
            assert len(store) == 0
            assert list(store.iter_all()) == []

    def test_record_with_newline_rejected(self, plain_engine):
        with ShardWriter(io.BytesIO(), engine=plain_engine) as writer:
            with pytest.raises(StoreError, match="terminator"):
                writer.add("CCO\nCC")
            writer.close()

    def test_add_after_close_rejected(self, plain_engine):
        writer = ShardWriter(io.BytesIO(), engine=plain_engine)
        writer.close()
        with pytest.raises(StoreError, match="closed"):
            writer.add("CCO")

    def test_plain_add_without_engine_rejected(self):
        with ShardWriter(io.BytesIO(), engine=None) as writer:
            with pytest.raises(StoreError, match="engine"):
                writer.add("CCO")
            writer.close()

    def test_invalid_block_size_rejected(self, plain_engine):
        with pytest.raises(StoreError):
            ShardWriter(io.BytesIO(), engine=plain_engine, records_per_block=0)

    def test_mispositioned_file_object_rejected(self, plain_engine):
        # Readers locate the magic at offset 0: a shard cannot start mid-file.
        buffer = io.BytesIO(b"prefix")
        buffer.seek(0, 2)
        with pytest.raises(StoreError, match="offset 0"):
            ShardWriter(buffer, engine=plain_engine)

    def test_stats_track_compression(self, plain_engine, mixed_corpus_small):
        corpus = mixed_corpus_small[:32]
        info = pack_records(io.BytesIO(), corpus, plain_engine, records_per_block=8)
        assert info.original_bytes == sum(len(s) + 1 for s in corpus)
        assert 0 < info.payload_bytes < info.original_bytes
        assert 0 < info.ratio < 1
        assert info.file_bytes > info.payload_bytes  # framing is accounted


class TestPackCompressed:
    def test_precompressed_records_roundtrip(self, plain_codec, mixed_corpus_small):
        corpus = mixed_corpus_small[:40]
        compressed = [plain_codec.compress(s) for s in corpus]
        buffer = io.BytesIO()
        info = pack_compressed_records(buffer, compressed, records_per_block=8)
        assert info.records == len(corpus)
        buffer.seek(0)
        with CorpusStore(buffer, codec=plain_codec) as store:
            assert list(store.iter_all()) == corpus

    def test_mixed_plain_and_precompressed_order(self, plain_engine, plain_codec,
                                                 mixed_corpus_small):
        corpus = mixed_corpus_small[:30]
        buffer = io.BytesIO()
        with ShardWriter(buffer, engine=plain_engine, records_per_block=7) as writer:
            writer.add_many(corpus[:10])
            writer.add_compressed_many([plain_codec.compress(s) for s in corpus[10:20]])
            writer.add_many(corpus[20:])
            writer.close()
        buffer.seek(0)
        with CorpusStore(buffer) as store:
            assert list(store.iter_all()) == corpus


class TestPackFile:
    def test_pack_file_roundtrip(self, plain_engine, mixed_corpus_small, tmp_path):
        from repro.core.streaming import write_lines

        corpus = mixed_corpus_small[:50]
        smi = tmp_path / "lib.smi"
        write_lines(smi, corpus)
        info = pack_file(smi, engine=plain_engine, records_per_block=16)
        assert info.path == tmp_path / "lib.zss"
        with CorpusStore(info.path) as store:
            assert list(store.iter_all()) == corpus

    def test_pack_file_requires_engine(self, tmp_path):
        with pytest.raises(StoreError, match="engine"):
            pack_file(tmp_path / "lib.smi")

    def test_pack_file_refuses_output_equal_to_input(
        self, plain_engine, mixed_corpus_small, tmp_path
    ):
        from repro.core.streaming import write_lines

        smi = tmp_path / "lib.smi"
        write_lines(smi, mixed_corpus_small[:50])
        before = smi.read_bytes()
        with pytest.raises(StoreError, match="lib.smi"):
            pack_file(smi, smi, engine=plain_engine)
        assert smi.read_bytes() == before

    def test_pack_file_with_missing_input_leaves_no_shard(self, plain_engine, tmp_path):
        missing = tmp_path / "missing.smi"
        with pytest.raises(FileNotFoundError):
            pack_file(missing, engine=plain_engine)
        assert list(tmp_path.iterdir()) == []


class TestFailedPack:
    def test_rejected_record_leaves_no_shard(self, plain_engine, tmp_path):
        target = tmp_path / "out.zss"
        with pytest.raises(StoreError, match="line terminators"):
            pack_records(target, ["CCO", "C\nC"], plain_engine)
        assert not target.exists()

    def test_caller_file_object_is_left_alone(self, plain_engine, tmp_path):
        target = tmp_path / "out.zss"
        with open(target, "wb") as handle:
            with pytest.raises(StoreError, match="line terminators"):
                pack_records(handle, ["CCO", "C\nC"], plain_engine)
            assert not handle.closed
        assert target.exists()
