"""Tests for the high-level ZSmilesCodec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import ZSmilesCodec
from repro.core.compressor import ParseStrategy
from repro.dictionary.prepopulation import PrePopulation
from repro.engine import ZSmilesEngine
from repro.smiles.validate import is_valid


class TestTraining:
    def test_training_report_available(self, trained_codec):
        assert trained_codec.training_report is not None
        assert trained_codec.training_report.selected > 0

    def test_preprocessing_pipeline_configured(self, trained_codec, plain_codec):
        assert any("ring_renumber" in name for name in trained_codec.pipeline.names)
        assert not any("ring_renumber" in name for name in plain_codec.pipeline.names)

    def test_train_with_custom_parameters(self, mixed_corpus_small):
        codec = ZSmilesCodec.train(
            mixed_corpus_small[:100],
            lmax=5,
            max_entries=20,
            prepopulation=PrePopulation.PRINTABLE,
            strategy=ParseStrategy.GREEDY,
        )
        assert codec.table.max_pattern_length <= 5
        assert len(codec.table.trained_entries) <= 20


class TestRoundTrip:
    def test_roundtrip_preprocessed(self, trained_codec, curated_smiles):
        for smiles in curated_smiles:
            compressed = trained_codec.compress(smiles)
            assert trained_codec.decompress(compressed) == trained_codec.preprocess(smiles)

    def test_roundtrip_exact_without_preprocessing(self, plain_codec, curated_smiles):
        for smiles in curated_smiles:
            assert plain_codec.decompress(plain_codec.compress(smiles)) == smiles

    def test_decompressed_output_is_valid_smiles(self, trained_codec, mediate_corpus):
        for smiles in mediate_corpus[:40]:
            out = trained_codec.decompress(trained_codec.compress(smiles))
            assert is_valid(out)

    def test_compress_many_preserves_order(self, trained_codec, gdb_corpus):
        batch = gdb_corpus[:30]
        engine = ZSmilesEngine.from_codec(trained_codec)
        compressed = engine.compress_batch(batch).records
        restored = engine.decompress_batch(compressed).records
        assert restored == [trained_codec.preprocess(s) for s in batch]

    def test_compressed_output_is_single_line(self, trained_codec, mediate_corpus):
        for smiles in mediate_corpus[:40]:
            compressed = trained_codec.compress(smiles)
            assert "\n" not in compressed and "\r" not in compressed

    def test_no_expansion_guarantee(self, trained_codec, exscalate_corpus):
        """With SMILES-alphabet pre-population a record never grows (Section IV-B)."""
        for smiles in exscalate_corpus[:60]:
            prepared = trained_codec.preprocess(smiles)
            assert len(trained_codec.compressor.compress_line(prepared)) <= len(prepared)


class TestEvaluation:
    """Corpus statistics of a codec, taken through the engine."""

    def test_evaluate_statistics(self, trained_codec, mixed_corpus_small):
        stats = ZSmilesEngine.from_codec(trained_codec).evaluate(mixed_corpus_small[:100])
        assert stats.lines == 100
        assert 0 < stats.compressed_bytes < stats.original_bytes
        assert 0 < stats.ratio < 1
        assert stats.matches > 0
        assert 0 <= stats.escape_fraction < 0.05

    def test_compression_ratio_in_paper_ballpark(self, trained_codec, mixed_corpus_small):
        """The MIXED self-compression ratio should land in the paper's regime (< 0.5)."""
        ratio = ZSmilesEngine.from_codec(trained_codec).compression_ratio(mixed_corpus_small[:150])
        assert 0.2 < ratio < 0.5

    def test_preprocessing_improves_ratio(self, trained_codec, plain_codec, mixed_corpus_small):
        corpus = mixed_corpus_small[:150]
        trained = ZSmilesEngine.from_codec(trained_codec)
        plain = ZSmilesEngine.from_codec(plain_codec)
        assert trained.compression_ratio(corpus) <= plain.compression_ratio(corpus)

    def test_evaluate_empty_corpus(self, trained_codec):
        stats = ZSmilesEngine.from_codec(trained_codec).evaluate([])
        assert stats.ratio == 1.0
        assert stats.escape_fraction == 0.0


class TestPersistence:
    def test_dictionary_roundtrip_through_file(self, trained_codec, tmp_path, curated_smiles):
        path = tmp_path / "shared.dct"
        trained_codec.save_dictionary(path)
        restored = ZSmilesCodec.from_dictionary(path, preprocessing=True)
        for smiles in curated_smiles:
            assert restored.decompress(trained_codec.compress(smiles)) == trained_codec.preprocess(
                smiles
            )

    def test_restored_codec_compresses_identically(self, trained_codec, tmp_path, gdb_corpus):
        path = tmp_path / "shared.dct"
        trained_codec.save_dictionary(path)
        restored = ZSmilesCodec.from_dictionary(path, preprocessing=True)
        for smiles in gdb_corpus[:25]:
            assert restored.compress(smiles) == trained_codec.compress(smiles)


@pytest.mark.slow
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property_on_generated_molecules(seed):
    """Property: compress/decompress is lossless up to preprocessing for any generated molecule."""
    from repro.datasets.exscalate import generator

    codec = _SHARED_PROPERTY_CODEC
    smiles = generator(seed=seed).generate_smiles()
    assert codec.decompress(codec.compress(smiles)) == codec.preprocess(smiles)


# Train one module-level codec for the property test to avoid re-training per example.
from repro.datasets import mixed as _mixed  # noqa: E402

_SHARED_PROPERTY_CODEC = ZSmilesCodec.train(_mixed.generate(200, seed=99), lmax=8)
