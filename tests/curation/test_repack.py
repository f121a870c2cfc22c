"""Cross-dictionary re-pack: parity, manifest pinning, mismatch detection.

The acceptance bar for ``zsmiles repack``: full readback of the repacked
multi-shard library is byte-identical to the source, its shard files are
byte-identical to a *fresh* pack of the same records with dictionary B, the
new manifest pins B's identity (and the server reports it), and the source
library is left untouched.
"""

from __future__ import annotations

import multiprocessing
import shutil

import pytest

from repro.curation import DictionaryIdentity, repack_library
from repro.engine import ProcessPoolBackend, ZSmilesEngine
from repro.engine import config as config_module
from repro.errors import CurationError, DictionaryMismatchError
from repro.library import CorpusLibrary, LibraryManifest, pack_library
from repro.server import BackgroundServer, CorpusClient

from ..library.test_parallel_pack import forbid_processes, spy_batches


@pytest.fixture(scope="module")
def dict_b_engine(corpus):
    """Dictionary B: trained on a shifted slice so it differs from A."""
    with ZSmilesEngine.train(
        corpus[40:] + corpus[:40] + ["c1ccccc1CCCN"], preprocessing=False, lmax=6
    ) as eng:
        yield eng


@pytest.fixture(scope="module")
def repacked(tmp_path_factory, library_dir, dict_b_engine):
    """The repack at ``shard_jobs=2``, with the pool's start cost patched to
    0 so that it runs on a 2-worker engine pool."""
    destination = tmp_path_factory.mktemp("repack") / "corpus.v2.library"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config_module, "POOL_START_COST_S", 0.0)
        pooled = spy_batches(patch, ProcessPoolBackend)
        result = repack_library(
            library_dir, destination, dict_b_engine.table, shard_jobs=2
        )
        assert multiprocessing.active_children() == []
    assert pooled and {backend.workers for backend, _ in pooled} == {2}
    return destination, result


class TestRepackParity:
    def test_full_readback_byte_identical(self, repacked, library_dir, corpus):
        destination, result = repacked
        with CorpusLibrary.open(destination) as packed:
            assert list(packed.iter_all()) == list(corpus)
        assert result.records == len(corpus)

    def test_shards_byte_identical_to_fresh_pack(
        self, repacked, tmp_path_factory, corpus, dict_b_engine
    ):
        """Repack == decompress-with-A + fresh pack-with-B, byte for byte."""
        from repro.curation.repack import repack_engine

        destination, _ = repacked
        fresh_dir = tmp_path_factory.mktemp("fresh") / "corpus.library"
        with repack_engine(dict_b_engine.table) as engine:
            pack_library(fresh_dir, corpus, engine, shards=3, records_per_block=8)
        repacked_shards = sorted(p.name for p in destination.glob("*.zss"))
        fresh_shards = sorted(p.name for p in fresh_dir.glob("*.zss"))
        assert repacked_shards == fresh_shards
        for name in repacked_shards:
            assert (destination / name).read_bytes() == (
                fresh_dir / name
            ).read_bytes()

    def test_source_left_untouched(self, repacked, library_dir, corpus):
        with CorpusLibrary.open(library_dir) as source:
            assert list(source.iter_all()) == list(corpus)

    @pytest.mark.parametrize("shard_jobs", [None, 1, 2])
    def test_default_start_cost_repacks_in_process(
        self, repacked, tmp_path, library_dir, dict_b_engine, monkeypatch, shard_jobs
    ):
        """At test scale no pool repays its start: no process starts, and
        the shards are the pooled repack's bytes."""
        forbid_processes(monkeypatch)
        destination, _ = repacked
        result = repack_library(
            library_dir, tmp_path / "local.library", dict_b_engine.table,
            shard_jobs=shard_jobs,
        )
        assert multiprocessing.active_children() == []
        for shard in destination.glob("*.zss"):
            assert (result.directory / shard.name).read_bytes() == shard.read_bytes()
        assert result.info.manifest.shards == LibraryManifest.load(
            destination / "library.json"
        ).shards


class TestIdentityPinning:
    def test_manifest_pins_target_identity(self, repacked, dict_b_engine):
        destination, result = repacked
        expected = DictionaryIdentity.of(dict_b_engine.table)
        assert result.target_identity.hash == expected.hash
        manifest = LibraryManifest.load(destination / "library.json")
        assert manifest.dictionary_identity().hash == expected.hash

    def test_source_identity_reported(self, repacked, library_dir):
        _, result = repacked
        with CorpusLibrary.open(library_dir) as source:
            assert result.source_identity == source.dictionary_identity()

    def test_server_stats_serve_identity(self, repacked, dict_b_engine):
        destination, _ = repacked
        expected = DictionaryIdentity.of(dict_b_engine.table)
        with BackgroundServer(destination) as server:
            with CorpusClient(server.url) as client:
                stats = client.stats()
        assert stats["dictionary"]["hash"] == expected.hash
        assert stats["dictionary"]["entries"] == expected.entries


class TestGuards:
    def test_same_directory_rejected(self, library_dir, dict_b_engine):
        with pytest.raises(CurationError):
            repack_library(library_dir, library_dir, dict_b_engine.table)

    def test_dct_path_accepted_as_dictionary(
        self, tmp_path, library_dir, dict_b_engine, corpus
    ):
        from repro.dictionary import serialization

        dct = tmp_path / "b.dct"
        serialization.save(dict_b_engine.table, dct)
        result = repack_library(library_dir, tmp_path / "out.library", dct)
        assert result.target_identity.hash == DictionaryIdentity.of(
            dict_b_engine.table
        ).hash


class TestMismatchDetection:
    def test_swapped_shard_raises(self, library_dir, repacked, tmp_path):
        """A shard packed with B inside A's library is caught on open."""
        destination, _ = repacked
        hybrid = tmp_path / "hybrid.library"
        shutil.copytree(library_dir, hybrid)
        victim = sorted(hybrid.glob("*.zss"))[0]
        donor = sorted(destination.glob("*.zss"))[0]
        shutil.copyfile(donor, victim)
        with pytest.raises(DictionaryMismatchError):
            with CorpusLibrary.open(hybrid) as library:
                list(library.iter_all())

    def test_codec_override_bypasses_check(
        self, library_dir, repacked, tmp_path, dict_b_engine
    ):
        """An explicit codec override says 'I know better' — honoured."""
        from repro.core.codec import ZSmilesCodec
        from repro.preprocess.pipeline import PreprocessingPipeline

        destination, _ = repacked
        hybrid = tmp_path / "hybrid.library"
        shutil.copytree(destination, hybrid)
        codec = ZSmilesCodec(
            dict_b_engine.table, pipeline=PreprocessingPipeline.identity()
        )
        with CorpusLibrary.open(hybrid, codec=codec) as library:
            assert library.get(0)
