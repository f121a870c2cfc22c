"""Tests for line I/O and the engine's file flows (.smi ↔ .zsmi)."""

from __future__ import annotations

import pytest

from repro.core.streaming import FILE_ENCODING, read_lines, write_lines
from repro.engine import BatchResult, ZSmilesEngine
from repro.errors import CodecError


@pytest.fixture()
def smi_file(tmp_path, mixed_corpus_small):
    path = tmp_path / "library.smi"
    write_lines(path, mixed_corpus_small[:120])
    return path


@pytest.fixture()
def trained_engine(trained_codec):
    return ZSmilesEngine.from_codec(trained_codec)


@pytest.fixture()
def plain_engine(plain_codec):
    return ZSmilesEngine.from_codec(plain_codec)


class TestLineIO:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "x.smi"
        count = write_lines(path, ["CC", "CCO"])
        assert count == 2
        assert list(read_lines(path)) == ["CC", "CCO"]

    def test_read_strips_terminators(self, tmp_path):
        path = tmp_path / "crlf.smi"
        path.write_bytes(b"CC\r\nCCO\r\n")
        assert list(read_lines(path)) == ["CC", "CCO"]


class TestCompressFile:
    def test_compress_decompress_roundtrip(
        self, smi_file, trained_codec, trained_engine, tmp_path
    ):
        zsmi = tmp_path / "library.zsmi"
        out = tmp_path / "restored.smi"
        comp_stats = trained_engine.compress_file(smi_file, zsmi)
        decomp_stats = trained_engine.decompress_file(zsmi, out)
        originals = list(read_lines(smi_file))
        restored = list(read_lines(out))
        assert comp_stats.lines == decomp_stats.lines == len(originals)
        assert restored == [trained_codec.preprocess(s) for s in originals]

    def test_compression_reduces_file_size(self, smi_file, trained_engine, tmp_path):
        zsmi = tmp_path / "library.zsmi"
        stats = trained_engine.compress_file(smi_file, zsmi)
        assert stats.output_bytes < stats.input_bytes
        assert 0 < stats.ratio < 1
        assert zsmi.stat().st_size == stats.output_bytes

    def test_line_separability_preserved(
        self, smi_file, trained_codec, trained_engine, tmp_path
    ):
        """One compressed record per line, same line numbers — the random-access contract."""
        zsmi = tmp_path / "library.zsmi"
        stats = trained_engine.compress_file(smi_file, zsmi)
        originals = list(read_lines(smi_file))
        compressed = list(read_lines(zsmi))
        assert len(compressed) == stats.lines
        assert len(compressed) == len(originals)
        for i in (0, 5, 50, len(originals) - 1):
            assert trained_codec.decompress(compressed[i]) == trained_codec.preprocess(
                originals[i]
            )

    def test_default_output_suffix(self, smi_file, trained_engine):
        stats = trained_engine.compress_file(smi_file)
        assert stats.output_path.suffix == ".zsmi"
        assert stats.output_path.exists()

    def test_exact_roundtrip_without_preprocessing(self, smi_file, plain_engine, tmp_path):
        zsmi = tmp_path / "plain.zsmi"
        out = tmp_path / "plain_restored.smi"
        plain_engine.compress_file(smi_file, zsmi)
        plain_engine.decompress_file(zsmi, out)
        assert list(read_lines(out)) == list(read_lines(smi_file))

    def test_progress_callback_invoked_on_large_runs(self, tmp_path, plain_engine):
        # 100k-record threshold is impractical here; just verify the callback
        # plumbing accepts a callable without being invoked for small files.
        path = tmp_path / "small.smi"
        write_lines(path, ["CC"] * 5)
        calls = []
        plain_engine.compress_file(path, tmp_path / "small.zsmi", progress=calls.append)
        assert calls == []

    def test_transform_guard_rejects_newlines(self, tmp_path, plain_engine, monkeypatch):
        def compress_batch(records, backend=None):
            out = [record + "\n" for record in records]
            return BatchResult(records=out, stats=None, wall_time=0.0, backend="kernel")

        monkeypatch.setattr(plain_engine, "compress_batch", compress_batch)
        path = tmp_path / "in.smi"
        write_lines(path, ["CC"])
        with pytest.raises(CodecError):
            plain_engine.compress_file(path, tmp_path / "out")

    def test_file_encoding_is_single_byte(self, smi_file, trained_engine, tmp_path):
        """Compressed files must store every symbol as one byte (Latin-1)."""
        zsmi = tmp_path / "library.zsmi"
        trained_engine.compress_file(smi_file, zsmi)
        text = zsmi.read_text(encoding=FILE_ENCODING)
        raw = zsmi.read_bytes()
        assert len(text) == len(raw)
