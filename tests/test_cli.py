"""End-to-end tests for the ``zsmiles`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.streaming import read_lines
from repro.datasets.io import write_smi


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A directory with a small .smi library and a trained dictionary."""
    from repro.datasets import mixed

    directory = tmp_path_factory.mktemp("cli")
    corpus = mixed.generate(150, seed=31)
    library = directory / "library.smi"
    write_smi(library, corpus)
    dictionary = directory / "shared.dct"
    exit_code = main(["train", str(library), "-o", str(dictionary), "--lmax", "6"])
    assert exit_code == 0
    return directory, library, dictionary, corpus


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "in.smi", "-o", "out.dct"])
        assert args.lmax == 8
        assert args.prepopulation == "smiles"


class TestTrainCompressDecompress:
    def test_dictionary_created(self, workspace):
        _, _, dictionary, _ = workspace
        assert dictionary.exists()
        assert dictionary.read_text(encoding="utf-8").startswith("# ZSMILES dictionary")

    def test_compress_and_stats(self, workspace, capsys):
        directory, library, dictionary, _ = workspace
        zsmi = directory / "library.zsmi"
        assert main(["compress", str(library), "-d", str(dictionary), "-o", str(zsmi)]) == 0
        assert zsmi.exists()
        out = capsys.readouterr().out
        assert "ratio" in out

        assert main(["stats", str(library), "-d", str(dictionary)]) == 0
        stats_out = capsys.readouterr().out
        assert "compression ratio" in stats_out

    def test_decompress_roundtrip(self, workspace):
        directory, library, dictionary, corpus = workspace
        zsmi = directory / "library.zsmi"
        if not zsmi.exists():
            main(["compress", str(library), "-d", str(dictionary), "-o", str(zsmi)])
        restored = directory / "restored.smi"
        assert main(["decompress", str(zsmi), "-d", str(dictionary), "-o", str(restored)]) == 0
        assert len(list(read_lines(restored))) == len(corpus)

    def test_index_and_get(self, workspace, capsys):
        directory, library, dictionary, corpus = workspace
        zsmi = directory / "library.zsmi"
        if not zsmi.exists():
            main(["compress", str(library), "-d", str(dictionary), "-o", str(zsmi)])
        index_path = directory / "library.idx"
        assert main(["index", str(zsmi), "-o", str(index_path)]) == 0
        assert index_path.exists()
        capsys.readouterr()

        assert main([
            "get", str(zsmi), "0", "5", "-d", str(dictionary), "--index", str(index_path),
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2


class TestBackendFlags:
    def test_backend_defaults_to_auto(self):
        args = build_parser().parse_args(["compress", "in.smi", "-d", "d.dct"])
        assert args.backend == "auto"
        assert args.jobs is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compress", "in.smi", "-d", "d.dct", "--backend", "gpu"]
            )

    def test_compress_with_serial_backend(self, workspace):
        directory, library, dictionary, corpus = workspace
        out = directory / "serial.zsmi"
        assert main([
            "compress", str(library), "-d", str(dictionary), "-o", str(out),
            "--backend", "serial",
        ]) == 0
        assert len(list(read_lines(out))) == len(corpus)

    def test_compress_with_process_backend_matches_serial(self, workspace):
        directory, library, dictionary, _ = workspace
        serial_out = directory / "flag_serial.zsmi"
        process_out = directory / "flag_process.zsmi"
        assert main([
            "compress", str(library), "-d", str(dictionary), "-o", str(serial_out),
            "--backend", "serial",
        ]) == 0
        assert main([
            "compress", str(library), "-d", str(dictionary), "-o", str(process_out),
            "--backend", "process", "--jobs", "2",
        ]) == 0
        assert process_out.read_bytes() == serial_out.read_bytes()

    def test_decompress_with_backend_flags(self, workspace):
        directory, library, dictionary, corpus = workspace
        zsmi = directory / "flag_roundtrip.zsmi"
        assert main([
            "compress", str(library), "-d", str(dictionary), "-o", str(zsmi),
            "--backend", "serial",
        ]) == 0
        restored = directory / "flag_restored.smi"
        assert main([
            "decompress", str(zsmi), "-d", str(dictionary), "-o", str(restored),
            "--backend", "process", "--jobs", "2",
        ]) == 0
        assert len(list(read_lines(restored))) == len(corpus)


class TestPackUnpackQuery:
    @pytest.fixture(scope="class")
    def packed(self, workspace, tmp_path_factory):
        directory, library, dictionary, corpus = workspace
        zss = tmp_path_factory.mktemp("pack") / "library.zss"
        exit_code = main([
            "pack", str(library), "-d", str(dictionary), "-o", str(zss),
            "--block-size", "32",
        ])
        assert exit_code == 0
        return zss, dictionary, corpus

    def test_pack_reports_blocks_and_ratio(self, workspace, tmp_path, capsys):
        directory, library, dictionary, corpus = workspace
        zss = tmp_path / "out.zss"
        assert main([
            "pack", str(library), "-d", str(dictionary), "-o", str(zss),
            "--block-size", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "blocks" in out and "ratio" in out
        assert zss.exists()

    def test_pack_default_output_swaps_suffix(self, workspace, tmp_path):
        directory, library, dictionary, _ = workspace
        copy = tmp_path / "lib.smi"
        copy.write_bytes(library.read_bytes())
        assert main(["pack", str(copy), "-d", str(dictionary)]) == 0
        assert (tmp_path / "lib.zss").exists()

    def test_query_uses_embedded_dictionary(self, packed, capsys):
        zss, dictionary, corpus = packed
        assert main(["query", str(zss), "0", "25", "149"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_query_matches_get_on_flat_file(self, workspace, packed, capsys):
        directory, library, dictionary, corpus = workspace
        zss, _, _ = packed
        zsmi = directory / "library.zsmi"
        if not zsmi.exists():
            main(["compress", str(library), "-d", str(dictionary), "-o", str(zsmi)])
        assert main(["query", str(zss), "3", "40"]) == 0
        store_lines = capsys.readouterr().out.strip().splitlines()
        assert main(["get", str(zsmi), "3", "40", "-d", str(dictionary)]) == 0
        flat_lines = capsys.readouterr().out.strip().splitlines()
        assert store_lines == flat_lines

    def test_query_raw_prints_stored_records(self, packed, capsys):
        zss, _, _ = packed
        assert main(["query", str(zss), "0", "--raw"]) == 0
        raw = capsys.readouterr().out.strip()
        assert raw  # compressed text, not necessarily printable SMILES

    def test_unpack_roundtrip(self, workspace, packed, tmp_path):
        directory, library, dictionary, corpus = workspace
        zss, _, _ = packed
        restored = tmp_path / "restored.smi"
        assert main(["unpack", str(zss), "-o", str(restored)]) == 0
        assert len(list(read_lines(restored))) == len(corpus)

    def test_pack_rejects_bad_block_size(self, workspace):
        directory, library, dictionary, _ = workspace
        assert main([
            "pack", str(library), "-d", str(dictionary), "--block-size", "0",
        ]) == 2


class TestShardedLibraryCommands:
    @pytest.fixture(scope="class")
    def packed_library(self, workspace, tmp_path_factory):
        """A 3-shard library packed through ``pack --shards``."""
        directory, library, dictionary, corpus = workspace
        library_dir = tmp_path_factory.mktemp("libpack") / "corpus.library"
        exit_code = main([
            "pack", str(library), "-d", str(dictionary),
            "-o", str(library_dir), "--shards", "3", "--block-size", "16",
        ])
        assert exit_code == 0
        return library_dir, dictionary, corpus

    def test_pack_shards_writes_manifest_and_shards(self, packed_library, capsys):
        library_dir, _, corpus = packed_library
        assert (library_dir / "library.json").exists()
        shards = sorted(p.name for p in library_dir.glob("*.zss"))
        assert shards == ["shard-0000.zss", "shard-0001.zss", "shard-0002.zss"]

    def test_pack_shards_default_output_directory(self, workspace, tmp_path):
        directory, library, dictionary, _ = workspace
        copy = tmp_path / "lib.smi"
        copy.write_bytes(library.read_bytes())
        assert main([
            "pack", str(copy), "-d", str(dictionary), "--shards", "2",
        ]) == 0
        assert (tmp_path / "lib.library" / "library.json").exists()

    def test_query_serves_from_library(self, packed_library, capsys):
        library_dir, _, corpus = packed_library
        assert main(["query", str(library_dir), "0", "60", "149"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_query_library_matches_single_shard(self, workspace, packed_library,
                                                tmp_path, capsys):
        directory, library, dictionary, _ = workspace
        library_dir, _, _ = packed_library
        zss = tmp_path / "single.zss"
        assert main([
            "pack", str(library), "-d", str(dictionary), "-o", str(zss),
        ]) == 0
        capsys.readouterr()
        assert main(["query", str(zss), "5", "77", "120"]) == 0
        single = capsys.readouterr().out
        assert main(["query", str(library_dir), "5", "77", "120"]) == 0
        assert capsys.readouterr().out == single
        # The manifest path and --cache-blocks serve the same bytes.
        assert main([
            "query", str(library_dir / "library.json"), "5", "77", "120",
            "--cache-blocks", "1",
        ]) == 0
        assert capsys.readouterr().out == single

    def test_query_rejects_bad_cache_blocks(self, packed_library):
        library_dir, _, _ = packed_library
        assert main(["query", str(library_dir), "0", "--cache-blocks", "0"]) == 2

    def test_unpack_library_roundtrip(self, packed_library, tmp_path):
        library_dir, _, corpus = packed_library
        restored = tmp_path / "restored.smi"
        assert main(["unpack", str(library_dir), "-o", str(restored)]) == 0
        assert len(list(read_lines(restored))) == len(corpus)

    def test_pack_rejects_bad_shard_count(self, workspace):
        directory, library, dictionary, _ = workspace
        assert main([
            "pack", str(library), "-d", str(dictionary), "--shards", "0",
        ]) == 2


class TestShardJobsFlag:
    def test_shard_jobs_requires_shards(self, workspace):
        directory, library, dictionary, _ = workspace
        assert main([
            "pack", str(library), "-d", str(dictionary), "--shard-jobs", "2",
        ]) == 2

    def test_shard_jobs_rejects_zero(self, workspace):
        directory, library, dictionary, _ = workspace
        assert main([
            "pack", str(library), "-d", str(dictionary),
            "--shards", "2", "--shard-jobs", "0",
        ]) == 2

    def test_shard_jobs_matches_sequential_pack(self, workspace, tmp_path, capsys):
        """`pack --shard-jobs` emits byte-identical shards and manifest."""
        directory, library, dictionary, _ = workspace
        sequential = tmp_path / "seq.library"
        parallel = tmp_path / "par.library"
        assert main([
            "pack", str(library), "-d", str(dictionary), "-o", str(sequential),
            "--shards", "3", "--block-size", "16",
        ]) == 0
        assert main([
            "pack", str(library), "-d", str(dictionary), "-o", str(parallel),
            "--shards", "3", "--block-size", "16", "--shard-jobs", "2",
        ]) == 0
        for name in ("shard-0000.zss", "shard-0001.zss", "shard-0002.zss",
                     "library.json"):
            assert (parallel / name).read_bytes() == (sequential / name).read_bytes()


class TestComposeCommand:
    def test_compose_concatenates_without_repacking(self, workspace, tmp_path, capsys):
        directory, library, dictionary, corpus = workspace
        root = tmp_path / "corpora"
        for name, shards in (("a", 2), ("b", 1)):
            assert main([
                "pack", str(library), "-d", str(dictionary),
                "-o", str(root / f"{name}.library"), "--shards", str(shards),
                "--block-size", "32",
            ]) == 0
        capsys.readouterr()
        assert main([
            "compose", str(root / "a.library"), str(root / "b.library"),
            "-o", str(root),
        ]) == 0
        out = capsys.readouterr().out
        assert "no shards repacked" in out
        assert (root / "library.json").exists()
        # The composed library serves both copies back to back.
        assert main(["query", str(root), "0", str(len(corpus)),
                     str(2 * len(corpus) - 1)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == lines[1]  # record 0 of copy A == record 0 of copy B

    def test_compose_rejects_outside_root(self, workspace, tmp_path, capsys):
        directory, library, dictionary, _ = workspace
        packed = tmp_path / "inner" / "a.library"
        assert main([
            "pack", str(library), "-d", str(dictionary), "-o", str(packed),
            "--shards", "1",
        ]) == 0
        capsys.readouterr()
        assert main(["compose", str(packed), "-o", str(tmp_path / "elsewhere")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "is not under the composed library root" in err


class TestQueryVerbose:
    def test_verbose_reports_cache_counters(self, workspace, tmp_path, capsys):
        directory, library, dictionary, _ = workspace
        zss = tmp_path / "v.zss"
        assert main([
            "pack", str(library), "-d", str(dictionary), "-o", str(zss),
            "--block-size", "16",
        ]) == 0
        capsys.readouterr()
        assert main(["query", str(zss), "0", "1", "2", "--verbose"]) == 0
        captured = capsys.readouterr()
        assert "cache:" in captured.err
        assert "2 hits" in captured.err  # records 1, 2 hit record 0's block
        assert "1 misses" in captured.err

    def test_verbose_on_library(self, workspace, tmp_path, capsys):
        directory, library, dictionary, _ = workspace
        library_dir = tmp_path / "v.library"
        assert main([
            "pack", str(library), "-d", str(dictionary), "-o", str(library_dir),
            "--shards", "2", "--block-size", "16",
        ]) == 0
        capsys.readouterr()
        assert main(["query", str(library_dir), "0", "80", "-v"]) == 0
        captured = capsys.readouterr()
        assert "cache:" in captured.err and "misses" in captured.err


class TestGenerateAndExperiment:
    def test_generate_dataset(self, tmp_path, capsys):
        out = tmp_path / "gdb.smi"
        assert main(["generate", "gdb17", "25", "-o", str(out), "--seed", "3"]) == 0
        assert len(list(read_lines(out))) == 25

    def test_experiment_table1_smoke(self, capsys):
        assert main(["experiment", "table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "SMILES alphabet" in out


class TestErrorReporting:
    """A failing command prints one ``error:`` line and exits 1, with no
    traceback."""

    def test_invalid_jobs(self, workspace, tmp_path, capsys):
        _, library, dictionary, _ = workspace
        assert main([
            "compress", str(library), "-d", str(dictionary),
            "-o", str(tmp_path / "out.zsmi"), "--jobs", "0",
        ]) == 1
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"

    def test_output_that_is_the_input(self, workspace, capsys):
        _, library, dictionary, _ = workspace
        before = library.read_bytes()
        assert main(["compress", str(library), "-d", str(dictionary), "-o", str(library)]) == 1
        assert capsys.readouterr().err == f"error: output {library} is the input file\n"
        assert library.read_bytes() == before

    def test_missing_corpus(self, tmp_path, capsys):
        missing = tmp_path / "missing.zss"
        assert main(["query", str(missing), "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot open {missing} as a corpus library")
        assert err.count("\n") == 1
