"""End-to-end CLI tests for the curation loop: ingest → train-dict → repack."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.streaming import read_lines
from repro.curation import DictionaryIdentity, load_verified
from repro.library import CorpusLibrary


@pytest.fixture(scope="module")
def raw_dump(tmp_path_factory):
    """A messy multi-source dump: blanks, dupes, salts, an id column."""
    from repro.datasets import mixed

    directory = tmp_path_factory.mktemp("curation_cli")
    corpus = mixed.generate(120, seed=11)
    dump = directory / "dump.txt"
    lines = []
    for i, smiles in enumerate(corpus):
        lines.append(f"{smiles}\tmol-{i}")
        if i % 5 == 0:
            lines.append(f"{smiles}\tmol-{i}-dup")   # duplicate SMILES
        if i % 7 == 0:
            lines.append("")                          # blank line
    dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return directory, dump, corpus


class TestIngest:
    def test_curates_and_reports(self, raw_dump, capsys, tmp_path):
        directory, dump, corpus = raw_dump
        out = tmp_path / "curated.smi"
        stats_json = tmp_path / "stats.json"
        assert main([
            "ingest", str(dump), "-o", str(out),
            "--column", "0", "--stats-json", str(stats_json),
        ]) == 0
        curated = list(read_lines(out))
        # Dedup keeps first occurrences; blanks and dupes are gone.
        assert curated == list(dict.fromkeys(corpus))
        printed = capsys.readouterr().out
        assert "ingested" in printed and str(out) in printed

        payload = json.loads(stats_json.read_text(encoding="utf-8"))
        assert payload["records_out"] == len(curated)
        assert payload["lines_in"] == payload["records_out"] + payload["rejected"]

    def test_no_dedup_keeps_duplicates(self, raw_dump, tmp_path):
        _, dump, corpus = raw_dump
        out = tmp_path / "full.smi"
        assert main([
            "ingest", str(dump), "-o", str(out), "--column", "0", "--no-dedup",
        ]) == 0
        assert len(list(read_lines(out))) > len(set(corpus))


class TestTrainDict:
    def test_trains_pinned_dictionary(self, raw_dump, capsys, tmp_path):
        _, dump, _ = raw_dump
        dct = tmp_path / "pinned.dct"
        assert main([
            "train-dict", str(dump), "-o", str(dct),
            "--column", "0", "--sample", "80", "--seed", "3",
            "--name", "cli-test", "--version", "1.2", "--lmax", "6",
        ]) == 0
        table, identity = load_verified(dct)
        assert identity.name == "cli-test"
        assert identity.version == "1.2"
        assert table.metadata["entries"] == str(len(table))
        printed = capsys.readouterr().out
        assert identity.short_hash in printed
        assert "cli-test@1.2" in printed

    def test_sample_must_be_positive(self, raw_dump, tmp_path):
        _, dump, _ = raw_dump
        assert main([
            "train-dict", str(dump), "-o", str(tmp_path / "x.dct"), "--sample", "0",
        ]) == 2


class TestRepack:
    @pytest.fixture(scope="class")
    def packed(self, raw_dump, tmp_path_factory):
        """A curated corpus packed into a library with dictionary A."""
        directory = tmp_path_factory.mktemp("repack_cli")
        _, dump, _ = raw_dump
        curated = directory / "curated.smi"
        assert main(["ingest", str(dump), "-o", str(curated), "--column", "0"]) == 0
        dict_a = directory / "a.dct"
        assert main([
            "train-dict", str(dump), "-o", str(dict_a),
            "--column", "0", "--sample", "60", "--name", "a", "--lmax", "6",
        ]) == 0
        library = directory / "corpus.library"
        assert main([
            "pack", str(curated), "-d", str(dict_a), "-o", str(library),
            "--shards", "3", "--block-size", "8",
        ]) == 0
        dict_b = directory / "b.dct"
        assert main([
            "train-dict", str(dump), "-o", str(dict_b),
            "--column", "0", "--sample", "90", "--seed", "9",
            "--name", "b", "--version", "2", "--lmax", "5",
        ]) == 0
        return directory, curated, library, dict_b

    def test_repack_migrates_and_verifies(self, packed, capsys):
        directory, curated, library, dict_b = packed
        destination = directory / "corpus.v2.library"
        assert main([
            "repack", str(library), "-o", str(destination), "-d", str(dict_b),
            "--shard-jobs", "2",
        ]) == 0
        printed = capsys.readouterr().out
        assert "repacked" in printed
        assert "b@2" in printed
        assert "readback verified" in printed

        _, identity = load_verified(dict_b)
        with CorpusLibrary.open(destination) as packed_library:
            assert packed_library.dictionary_identity().hash == identity.hash
            migrated = list(packed_library.iter_all())
        # Readback identical to the source library's (the corpus itself).
        with CorpusLibrary.open(library) as source_library:
            assert migrated == list(source_library.iter_all())

    def test_same_directory_repack_fails(self, packed, capsys):
        _, _, library, dict_b = packed
        assert main(
            ["repack", str(library), "-o", str(library), "-d", str(dict_b)]
        ) == 1
        assert "repack destination must be a different directory" in capsys.readouterr().err

    def test_bad_shard_jobs_rejected(self, packed):
        directory, _, library, dict_b = packed
        assert main([
            "repack", str(library), "-o", str(directory / "x.library"),
            "-d", str(dict_b), "--shard-jobs", "0",
        ]) == 2


class TestQueryVerbose:
    def test_reports_dictionary_identity_for_library(self, raw_dump, capsys, tmp_path):
        _, dump, _ = raw_dump
        curated = tmp_path / "c.smi"
        assert main(["ingest", str(dump), "-o", str(curated), "--column", "0"]) == 0
        dct = tmp_path / "q.dct"
        assert main([
            "train-dict", str(dump), "-o", str(dct),
            "--column", "0", "--sample", "50", "--name", "qdict", "--lmax", "6",
        ]) == 0
        library = tmp_path / "q.library"
        assert main([
            "pack", str(curated), "-d", str(dct), "-o", str(library),
            "--shards", "2", "--block-size", "8",
        ]) == 0
        capsys.readouterr()
        assert main(["query", str(library), "0", "--verbose"]) == 0
        captured = capsys.readouterr()
        _, identity = load_verified(dct)
        assert f"dictionary: {identity.label()}" in captured.err
        assert "qdict" in captured.err

    def test_reports_identity_for_bare_store(self, raw_dump, capsys, tmp_path):
        """A bare .zss answers from its embedded dictionary."""
        _, dump, _ = raw_dump
        curated = tmp_path / "c.smi"
        assert main(["ingest", str(dump), "-o", str(curated), "--column", "0"]) == 0
        dct = tmp_path / "s.dct"
        assert main([
            "train-dict", str(dump), "-o", str(dct),
            "--column", "0", "--sample", "50", "--lmax", "6",
        ]) == 0
        store = tmp_path / "c.zss"
        assert main(["pack", str(curated), "-d", str(dct), "-o", str(store)]) == 0
        capsys.readouterr()
        assert main(["query", str(store), "0", "--verbose"]) == 0
        captured = capsys.readouterr()
        _, identity = load_verified(dct)
        assert identity.short_hash in captured.err


def test_package_exports_curation_surface():
    import repro

    assert repro.DictionaryIdentity is DictionaryIdentity
    for name in ("IngestPipeline", "ReservoirSampler", "pin_identity", "repack_library"):
        assert hasattr(repro, name)
