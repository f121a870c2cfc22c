"""Tests for the :class:`ZSmilesEngine` facade.

Includes the acceptance checks of the engine redesign: the engine's batch and
file paths must be byte-identical to the seed :class:`ZSmilesCodec` per-line
path, and ``backend="auto"`` must route batches by size.
"""

from __future__ import annotations

import pytest

from repro.core.streaming import read_lines, write_lines
from repro.engine import EngineConfig, ZSmilesEngine
from repro.errors import CodecError


@pytest.fixture(scope="module")
def engine(mixed_corpus_small):
    return ZSmilesEngine.train(mixed_corpus_small, EngineConfig(preprocessing=True, lmax=8))


class TestConstruction:
    def test_train_matches_codec_train(self, mixed_corpus_small, trained_codec):
        engine = ZSmilesEngine.train(
            mixed_corpus_small, EngineConfig(preprocessing=True, lmax=8)
        )
        assert engine.table.patterns() == trained_codec.table.patterns()
        assert engine.table.symbols() == trained_codec.table.symbols()
        assert engine.training_report is not None

    def test_train_accepts_overrides(self, mixed_corpus_small):
        engine = ZSmilesEngine.train(mixed_corpus_small, lmax=5, preprocessing=False)
        assert engine.config.lmax == 5
        assert engine.table.max_pattern_length <= 5

    def test_from_codec_preserves_strategy_and_pipeline(self, plain_codec):
        engine = ZSmilesEngine.from_codec(plain_codec)
        assert engine.codec is plain_codec
        assert engine.config.strategy is plain_codec.compressor.strategy

    def test_from_codec_syncs_config_to_codec(self, plain_codec, trained_codec):
        # plain_codec was trained with preprocessing=False; the engine config
        # must reflect the codec's actual pipeline, not the EngineConfig default.
        assert ZSmilesEngine.from_codec(plain_codec).config.preprocessing is False
        engine = ZSmilesEngine.from_codec(trained_codec)
        assert engine.config.preprocessing is True
        assert engine.config.prepopulation is trained_codec.table.prepopulation

    def test_from_dictionary_round_trip(self, engine, tmp_path):
        path = tmp_path / "shared.dct"
        engine.save_dictionary(path)
        reloaded = ZSmilesEngine.from_dictionary(path)
        sample = "COc1cc(C=O)ccc1O"
        assert reloaded.compress(sample) == engine.compress(sample)


class TestByteIdenticalToSeedPath:
    """Acceptance criterion: engine output == seed ZSmilesCodec output."""

    def test_compress_batch_matches_per_line_codec(self, engine, mixed_corpus_small):
        expected = [engine.codec.compress(s) for s in mixed_corpus_small]
        assert engine.compress_batch(mixed_corpus_small).records == expected

    def test_decompress_batch_matches_per_line_codec(self, engine, mixed_corpus_small):
        compressed = engine.compress_batch(mixed_corpus_small).records
        expected = [engine.codec.decompress(c) for c in compressed]
        assert engine.decompress_batch(compressed).records == expected

    def test_evaluate_matches_seed_accounting(self, engine, mixed_corpus_small):
        stats = engine.evaluate(mixed_corpus_small)
        # Reproduce the seed per-line accounting by hand.
        original = sum(len(s) + 1 for s in mixed_corpus_small)
        compressed = sum(
            len(engine.codec.compress(s)) + 1 for s in mixed_corpus_small
        )
        assert stats.lines == len(mixed_corpus_small)
        assert stats.original_bytes == original
        assert stats.compressed_bytes == compressed

    def test_compress_file_matches_per_line_output(self, engine, mixed_corpus_small, tmp_path):
        smi = tmp_path / "library.smi"
        write_lines(smi, mixed_corpus_small)
        stats = engine.compress_file(smi, tmp_path / "library.zsmi", batch_size=32)
        assert stats.lines == len(mixed_corpus_small)
        expected = [engine.codec.compress(s) for s in mixed_corpus_small]
        assert list(read_lines(stats.output_path)) == expected

    def test_decompress_file_round_trip(self, mixed_corpus_small, tmp_path):
        engine = ZSmilesEngine.train(mixed_corpus_small, preprocessing=False, lmax=6)
        smi = tmp_path / "plain.smi"
        write_lines(smi, mixed_corpus_small)
        engine.compress_file(smi, tmp_path / "plain.zsmi", batch_size=50)
        engine.decompress_file(tmp_path / "plain.zsmi", tmp_path / "restored.smi")
        assert list(read_lines(tmp_path / "restored.smi")) == mixed_corpus_small


class TestAutoBackendSelection:
    def test_small_batch_runs_kernel(self, mixed_corpus_small):
        engine = ZSmilesEngine.train(
            mixed_corpus_small, lmax=6, parallel_threshold=10_000
        )
        result = engine.compress_batch(mixed_corpus_small[:10])
        assert result.backend == "kernel"

    def test_large_batch_routes_to_process_pool(self, mixed_corpus_small):
        engine = ZSmilesEngine.train(
            mixed_corpus_small,
            lmax=6,
            parallel_threshold=8,
            jobs=2,
            chunk_size=16,
        )
        with engine:
            batch = mixed_corpus_small[:32]
            result = engine.compress_batch(batch)
            assert result.backend == "process"
            assert result.records == [engine.codec.compress(s) for s in batch]

    def test_explicit_backend_argument_overrides_auto(self, mixed_corpus_small):
        engine = ZSmilesEngine.train(mixed_corpus_small, lmax=6, parallel_threshold=0)
        result = engine.compress_batch(mixed_corpus_small[:5], backend="serial")
        assert result.backend == "serial"

    def test_backend_instances_are_cached(self, engine):
        assert engine.backend("serial") is engine.backend("serial")

    def test_close_keeps_engine_usable(self, mixed_corpus_small):
        engine = ZSmilesEngine.train(mixed_corpus_small, lmax=6)
        engine.compress_batch(mixed_corpus_small[:4])
        engine.close()
        assert engine.compress_batch(mixed_corpus_small[:4]).records


class TestOutputIsNotInput:
    """A file flow refuses an output that names its input (opening it would truncate it)."""

    @pytest.fixture()
    def plain_engine(self, mixed_corpus_small):
        return ZSmilesEngine.train(mixed_corpus_small, preprocessing=False, lmax=6)

    def test_compress_refuses_default_output_of_a_zsmi_input(
        self, plain_engine, mixed_corpus_small, tmp_path
    ):
        path = tmp_path / "again.zsmi"
        write_lines(path, mixed_corpus_small[:50])
        before = path.read_bytes()
        with pytest.raises(CodecError, match="again.zsmi"):
            plain_engine.compress_file(path)
        assert path.read_bytes() == before

    def test_decompress_refuses_default_output_of_a_smi_input(
        self, plain_engine, mixed_corpus_small, tmp_path
    ):
        path = tmp_path / "plain.smi"
        write_lines(path, plain_engine.compress_batch(mixed_corpus_small[:50]).records)
        before = path.read_bytes()
        with pytest.raises(CodecError, match="plain.smi"):
            plain_engine.decompress_file(path)
        assert path.read_bytes() == before

    def test_compress_refuses_explicit_output_equal_to_input(
        self, plain_engine, mixed_corpus_small, tmp_path
    ):
        path = tmp_path / "library.smi"
        write_lines(path, mixed_corpus_small[:50])
        before = path.read_bytes()
        with pytest.raises(CodecError, match="library.smi"):
            plain_engine.compress_file(path, tmp_path / "." / "library.smi")
        assert path.read_bytes() == before
