"""Tests for the baseline codec interface and the ZSMILES adapter."""

from __future__ import annotations

import pytest

from repro.baselines.bzip2_codec import bzip2_over_lines
from repro.baselines.interface import BaselineCodec, CodecProperties
from repro.baselines.zsmiles_adapter import ZSmilesBaseline
from repro.engine import ZSmilesEngine


class _UpperCodec(BaselineCodec):
    """Minimal concrete codec used to exercise the shared helpers."""

    properties = CodecProperties(
        name="upper", readable_output=True, random_access=True, shared_dictionary=True
    )

    def fit(self, corpus):
        return self

    def compress_record(self, record: str) -> bytes:
        return record.encode("ascii")

    def decompress_record(self, payload: bytes) -> str:
        return payload.decode("ascii")


class TestInterfaceHelpers:
    def test_compress_corpus_order(self):
        codec = _UpperCodec().fit([])
        assert codec.compress_corpus(["a", "bb"]) == [b"a", b"bb"]

    def test_compressed_size_includes_overhead(self):
        codec = _UpperCodec().fit([])
        assert codec.compressed_size(["ab", "c"]) == 3 + 2 * codec.record_overhead

    def test_compression_ratio_identity_codec(self):
        codec = _UpperCodec().fit([])
        assert codec.compression_ratio(["abc", "de"]) == pytest.approx(1.0)

    def test_ratio_empty_corpus(self):
        assert _UpperCodec().fit([]).compression_ratio([]) == 1.0

    def test_roundtrip_ok(self):
        assert _UpperCodec().fit([]).roundtrip_ok(["abc", "CCO"])

    def test_explicit_overhead_override(self):
        codec = _UpperCodec().fit([])
        assert codec.compressed_size(["ab"], per_record_overhead=4) == 6


class TestZSmilesAdapter:
    def test_fit_required(self):
        with pytest.raises(RuntimeError):
            ZSmilesBaseline().compress_record("CC")

    def test_roundtrip_modulo_preprocessing(self, mixed_corpus_small):
        baseline = ZSmilesBaseline(preprocessing=False).fit(mixed_corpus_small[:150])
        assert baseline.roundtrip_ok(mixed_corpus_small[:50])

    def test_ratio_matches_underlying_codec(self, mixed_corpus_small):
        corpus = mixed_corpus_small[:150]
        baseline = ZSmilesBaseline().fit(corpus)
        direct = ZSmilesEngine.from_codec(baseline.codec).compression_ratio(corpus)
        assert baseline.compression_ratio(corpus) == pytest.approx(direct, abs=1e-9)

    def test_zsmiles_plus_bzip2_improves_ratio(self, mixed_corpus_small):
        corpus = mixed_corpus_small[:200]
        baseline = ZSmilesBaseline().fit(corpus)
        assert baseline.zsmiles_plus_bzip2_ratio(corpus) < baseline.compression_ratio(corpus)

    def test_zsmiles_plus_bzip2_ratio_is_the_per_line_formula(self, mixed_corpus_small):
        corpus = mixed_corpus_small[:200]
        baseline = ZSmilesBaseline().fit(corpus)
        lines = [baseline.codec.compress(record) for record in corpus]
        zsmiles_ratio = sum(len(line) + 1 for line in lines) / sum(len(r) + 1 for r in corpus)
        expected = zsmiles_ratio * bzip2_over_lines(lines)
        assert baseline.zsmiles_plus_bzip2_ratio(corpus) == expected

    def test_properties_flags(self):
        props = ZSmilesBaseline.properties
        assert props.readable_output and props.random_access and props.shared_dictionary
