"""Packing on the engine's process pool: ``shard_jobs`` workers, byte-identical.

A pack starts a pool only when its first batch shows that the pool repays
its start (``repro.engine.config.POOL_START_COST_S``); these suites patch
that cost to 0 to pack through the pool at test scale, and make the pool's
executor raise to show that the default cost keeps a test-scale pack
in-process.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import pytest

from repro.engine import KernelBackend, ProcessPoolBackend, ZSmilesEngine
from repro.engine import backends as backends_module
from repro.engine import config as config_module
from repro.engine.config import pool_repays
from repro.errors import LibraryError, StoreError
from repro.library import CorpusLibrary, LibraryWriter, pack_library


def _shard_bytes(directory):
    return {
        path.name: path.read_bytes() for path in sorted(directory.glob("*.zss"))
    }


def spy_batches(patch, backend_class) -> list:
    """``(backend, batch size)`` of every batch *backend_class* compresses."""
    batches: list = []
    compress = backend_class.compress_batch

    def recording(self, records):
        batches.append((self, len(records)))
        return compress(self, records)

    patch.setattr(backend_class, "compress_batch", recording)
    return batches


def forbid_processes(patch) -> None:
    """Make the engine pool's executor raise: no process may start."""

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    patch.setattr(backends_module, "ProcessPoolExecutor", refuse)


def pathless_shards(info):
    """The pack's per-shard summaries without their (directory-bound) paths."""
    return [dataclasses.replace(shard, path=None) for shard in info.shards]


class TestParallelPackingParity:
    @pytest.fixture(scope="class")
    def packed_pair(self, tmp_path_factory, corpus, engine):
        """The same corpus packed in-process (serial oracle) and, with the
        pool's start cost patched to 0, through a 3-worker engine pool."""
        base = tmp_path_factory.mktemp("shard_jobs")
        sequential = base / "sequential.library"
        parallel = base / "parallel.library"
        info_seq = pack_library(
            sequential, corpus, engine, shards=4, records_per_block=8
        )
        with pytest.MonkeyPatch.context() as patch, ZSmilesEngine.from_codec(
            engine.codec
        ) as auto:
            patch.setattr(config_module, "POOL_START_COST_S", 0.0)
            pooled = spy_batches(patch, ProcessPoolBackend)
            info_par = pack_library(
                parallel, corpus, auto, shards=4, records_per_block=8, shard_jobs=3
            )
            assert multiprocessing.active_children() == []
        assert pooled and {backend.workers for backend, _ in pooled} == {3}
        return sequential, parallel, info_seq, info_par

    def test_every_shard_byte_identical(self, packed_pair):
        sequential, parallel, _, _ = packed_pair
        seq_bytes = _shard_bytes(sequential)
        par_bytes = _shard_bytes(parallel)
        assert list(seq_bytes) == list(par_bytes) == [
            f"shard-{i:04d}.zss" for i in range(4)
        ]
        for name in seq_bytes:
            assert par_bytes[name] == seq_bytes[name], f"{name} differs"

    def test_manifest_byte_identical(self, packed_pair):
        sequential, parallel, _, _ = packed_pair
        assert (parallel / "library.json").read_bytes() == (
            sequential / "library.json"
        ).read_bytes()

    def test_pack_summaries_agree(self, packed_pair):
        _, _, info_seq, info_par = packed_pair
        assert info_par.records == info_seq.records
        assert info_par.payload_bytes == info_seq.payload_bytes
        assert info_par.file_bytes == info_seq.file_bytes
        assert info_par.original_bytes == info_seq.original_bytes
        assert pathless_shards(info_par) == pathless_shards(info_seq)
        assert info_par.manifest == info_seq.manifest

    def test_parallel_pack_serves_correctly(self, packed_pair, corpus):
        _, parallel, _, _ = packed_pair
        with CorpusLibrary.open(parallel) as library:
            assert list(library.iter_all()) == corpus


class TestShardJobsKnob:
    def test_more_jobs_than_shards_is_clamped(self, tmp_path, corpus, engine):
        directory = tmp_path / "clamped.library"
        info = pack_library(
            directory, corpus[:24], engine, shards=2, records_per_block=8,
            shard_jobs=16,
        )
        assert info.shard_count == 2
        with CorpusLibrary.open(directory) as library:
            assert list(library.iter_all()) == corpus[:24]

    def test_single_job_stays_in_process(self, tmp_path, corpus, engine):
        directory = tmp_path / "single.library"
        info = pack_library(
            directory, corpus[:16], engine, shards=2, records_per_block=8,
            shard_jobs=1,
        )
        assert info.shard_count == 2

    def test_invalid_shard_jobs_rejected(self, tmp_path, engine):
        with pytest.raises(LibraryError, match="shard_jobs"):
            LibraryWriter(tmp_path / "x.library", engine, shards=2, shard_jobs=0)


class TestPoolRouting:
    """Where a pack compresses: in-process unless a pool repays its start."""

    def pack(self, tmp_path, corpus, engine, **options):
        directory = tmp_path / "routed.library"
        info = pack_library(directory, corpus, engine, shards=3, records_per_block=8, **options)
        assert multiprocessing.active_children() == []
        with CorpusLibrary.open(directory) as library:
            assert list(library.iter_all()) == corpus
        return info

    @pytest.fixture()
    def auto(self, engine):
        with ZSmilesEngine.from_codec(engine.codec) as auto:
            yield auto

    @pytest.mark.parametrize("shard_jobs", [None, 2, 3])
    def test_default_start_cost_packs_in_process(
        self, tmp_path, corpus, auto, monkeypatch, shard_jobs
    ):
        forbid_processes(monkeypatch)
        self.pack(tmp_path, corpus, auto, shard_jobs=shard_jobs)

    def test_first_batch_is_kept_and_the_rest_pooled(self, tmp_path, corpus, auto, monkeypatch):
        """The kernel compresses the first writer batch once, and its output
        is stored; every later batch goes to the pool."""
        monkeypatch.setattr(config_module, "POOL_START_COST_S", 0.0)
        kernel = spy_batches(monkeypatch, KernelBackend)
        pooled = spy_batches(monkeypatch, ProcessPoolBackend)
        self.pack(tmp_path, corpus, auto, shard_jobs=2)
        assert [size for _, size in kernel] == [40]   # shard 0: 40 records, one batch
        assert [size for _, size in pooled] == [40, 40]
        assert {backend.workers for backend, _ in pooled} == {2}
        assert {backend.chunk_size for backend, _ in pooled} == {20}

    def test_one_worker_never_pools(self, tmp_path, corpus, auto, monkeypatch):
        monkeypatch.setattr(config_module, "POOL_START_COST_S", 0.0)
        forbid_processes(monkeypatch)
        self.pack(tmp_path, corpus, auto, shard_jobs=1)

    def test_explicit_process_backend_uses_the_pool(self, tmp_path, corpus, auto, monkeypatch):
        pooled = spy_batches(monkeypatch, ProcessPoolBackend)
        self.pack(tmp_path, corpus, auto, backend="process", shard_jobs=2)
        assert [size for _, size in pooled] == [40, 40, 40]
        assert {backend.workers for backend, _ in pooled} == {2}

    def test_explicit_in_process_backend_is_obeyed(self, tmp_path, corpus, engine, monkeypatch):
        monkeypatch.setattr(config_module, "POOL_START_COST_S", 0.0)
        forbid_processes(monkeypatch)
        self.pack(tmp_path, corpus, engine, shard_jobs=3)   # a serial engine

    def test_a_failed_pack_stops_its_pool(self, tmp_path, corpus, auto, monkeypatch):
        monkeypatch.setattr(config_module, "POOL_START_COST_S", 0.0)
        pooled = spy_batches(monkeypatch, ProcessPoolBackend)
        with pytest.raises(StoreError, match="line terminators"):
            pack_library(
                tmp_path / "bad.library", corpus + ["C\nC"], auto, shards=3,
                records_per_block=8, shard_jobs=2,
            )
        assert pooled                                  # the last shard failed
        assert multiprocessing.active_children() == []


class TestPoolRepays:
    """The rule: (records left) x t x (1 - 1/W) must exceed the start cost."""

    def test_saving_must_exceed_the_start_cost(self, monkeypatch):
        monkeypatch.setattr(config_module, "POOL_START_COST_S", 0.5)
        assert not pool_repays(1000, 1e-3, 2)          # saves exactly 0.5 s
        assert pool_repays(1001, 1e-3, 2)
        assert pool_repays(1000, 1e-3, 4)              # saves 0.75 s

    def test_one_worker_or_no_records_never_repay(self, monkeypatch):
        monkeypatch.setattr(config_module, "POOL_START_COST_S", 0.0)
        assert not pool_repays(10**9, 1.0, 1)
        assert not pool_repays(0, 1.0, 8)
