"""Focused tests for :class:`ProcessPoolBackend` (satellite coverage).

Order preservation across chunks, worker-count defaulting and error
propagation are the three behaviours the paper's data-parallel decomposition
depends on ("one record per work item, order preserved").
"""

from __future__ import annotations

import pytest

from repro.engine import EngineConfig, ProcessPoolBackend, default_worker_count
from repro.engine.config import EngineConfigError
from repro.errors import ParallelExecutionError


class TestWorkerDefaults:
    def test_jobs_none_defaults_to_cpu_count(self, plain_codec):
        backend = ProcessPoolBackend(plain_codec, EngineConfig(jobs=None))
        assert backend.workers == default_worker_count()
        assert backend.workers >= 1

    def test_explicit_jobs_respected(self, plain_codec):
        backend = ProcessPoolBackend(plain_codec, EngineConfig(jobs=3))
        assert backend.workers == 3

    def test_invalid_jobs_rejected_at_config_level(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(jobs=0)

    def test_default_config_used_when_omitted(self, plain_codec):
        backend = ProcessPoolBackend(plain_codec)
        assert backend.workers == default_worker_count()
        assert backend.chunk_size == EngineConfig().chunk_size


class TestOrderPreservation:
    def test_order_preserved_across_many_chunks(self, plain_codec, mixed_corpus_small):
        batch = mixed_corpus_small[:60]
        with ProcessPoolBackend(plain_codec, EngineConfig(jobs=2, chunk_size=8)) as pool:
            result = pool.compress_batch(batch)
            assert result.chunks == 8  # 60 records / 8 per chunk
            assert result.records == [plain_codec.compress(s) for s in batch]

            restored = pool.decompress_batch(result.records)
            assert restored.records == batch

    def test_pool_is_reused_across_batches(self, plain_codec, mixed_corpus_small):
        batch = mixed_corpus_small[:20]
        with ProcessPoolBackend(plain_codec, EngineConfig(jobs=2, chunk_size=5)) as pool:
            first = pool.compress_batch(batch)
            pool_obj = pool._pool
            assert pool_obj is not None
            second = pool.compress_batch(batch)
            assert pool._pool is pool_obj  # no respawn between batches
            assert first.records == second.records


class TestErrorPropagation:
    def test_malformed_compressed_input_raises_parallel_error(
        self, plain_codec, mixed_corpus_small
    ):
        compressed = [plain_codec.compress(s) for s in mixed_corpus_small[:12]]
        compressed[7] = "\x00\x01\x02"  # symbols no dictionary contains
        with ProcessPoolBackend(plain_codec, EngineConfig(jobs=2, chunk_size=4)) as pool:
            with pytest.raises(ParallelExecutionError) as excinfo:
                pool.decompress_batch(compressed)
        assert "parallel batch failed" in str(excinfo.value)

    def test_dangling_escape_raises_parallel_error(self, plain_codec):
        with ProcessPoolBackend(plain_codec, EngineConfig(jobs=2, chunk_size=1)) as pool:
            with pytest.raises(ParallelExecutionError):
                pool.decompress_batch([" "])  # escape marker with nothing after it

    def test_pool_survives_worker_exception(self, plain_codec, mixed_corpus_small):
        """A decoding error in one batch must not poison the next batch."""
        batch = mixed_corpus_small[:8]
        with ProcessPoolBackend(plain_codec, EngineConfig(jobs=2, chunk_size=4)) as pool:
            with pytest.raises(ParallelExecutionError):
                pool.decompress_batch(["\x00"])
            result = pool.compress_batch(batch)
            assert result.records == [plain_codec.compress(s) for s in batch]


class TestEmptyBatch:
    def test_empty_batch_needs_no_pool(self, plain_codec):
        backend = ProcessPoolBackend(plain_codec, EngineConfig(jobs=2))
        result = backend.compress_batch([])
        assert result.records == []
        assert backend._pool is None  # no processes were spawned


class TestWorkerPayload:
    def test_codec_is_picklable(self, trained_codec):
        """The spawn-based pool requires the codec (pipeline included) to pickle."""
        import pickle

        clone = pickle.loads(pickle.dumps(trained_codec))
        assert clone.compress("COc1cc(C=O)ccc1O") == trained_codec.compress("COc1cc(C=O)ccc1O")
