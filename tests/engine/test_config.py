"""Tests for the consolidated :class:`EngineConfig`."""

from __future__ import annotations

import os

import pytest

from repro.core.compressor import ParseStrategy
from repro.dictionary.prepopulation import PrePopulation
from repro.engine import EngineConfig, EngineConfigError
from repro.engine.config import (
    AUTO_BACKEND,
    KERNEL_BACKEND,
    PROCESS_BACKEND,
    SERIAL_BACKEND,
)


class TestValidation:
    def test_defaults_are_consistent(self):
        config = EngineConfig()
        assert config.backend == AUTO_BACKEND
        assert config.strategy is ParseStrategy.OPTIMAL
        assert config.prepopulation is PrePopulation.SMILES_ALPHABET

    def test_string_strategy_and_prepopulation_coerced(self):
        config = EngineConfig(strategy="greedy", prepopulation="printable")
        assert config.strategy is ParseStrategy.GREEDY
        assert config.prepopulation is PrePopulation.PRINTABLE

    def test_invalid_jobs_rejected(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(jobs=0)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(chunk_size=0)

    def test_replace_returns_updated_copy(self):
        config = EngineConfig(lmax=6)
        other = config.replace(lmax=10, backend=SERIAL_BACKEND)
        assert other.lmax == 10
        assert other.backend == SERIAL_BACKEND
        assert config.lmax == 6  # original untouched


class TestDictionarySlice:
    def test_dictionary_config_mirrors_fields(self):
        config = EngineConfig(lmin=3, lmax=7, max_entries=50, min_occurrences=4)
        dconfig = config.dictionary_config()
        assert dconfig.lmin == 3
        assert dconfig.lmax == 7
        assert dconfig.max_entries == 50
        assert dconfig.min_occurrences == 4
        assert dconfig.prepopulation is config.prepopulation

    def test_build_pipeline_honours_preprocessing_flag(self):
        assert EngineConfig(preprocessing=False).build_pipeline()("CC") == "CC"


@pytest.fixture
def cpus(monkeypatch):
    """Pin the host's CPU count: ``cpus(n)``."""
    return lambda count: monkeypatch.setattr(os, "cpu_count", lambda: count)


class TestBackendResolution:
    def test_explicit_backend_wins(self):
        config = EngineConfig(backend=SERIAL_BACKEND, parallel_threshold=0)
        assert config.resolved_backend(10**6) == SERIAL_BACKEND

    def test_auto_small_batch_is_kernel(self):
        config = EngineConfig(parallel_threshold=100)
        assert config.resolved_backend(99) == KERNEL_BACKEND

    def test_auto_large_batch_is_process(self, cpus):
        cpus(2)
        config = EngineConfig(parallel_threshold=100)
        assert config.resolved_backend(100) == PROCESS_BACKEND

    def test_auto_single_job_stays_in_process(self):
        config = EngineConfig(parallel_threshold=100, jobs=1)
        assert config.resolved_backend(10**6) == KERNEL_BACKEND

    def test_auto_on_one_cpu_host_stays_in_process(self, cpus):
        # No jobs: the pool would get one worker per CPU, so one worker.
        cpus(1)
        config = EngineConfig(parallel_threshold=100)
        assert config.worker_count() == 1
        assert config.resolved_backend(10**6) == KERNEL_BACKEND
        # Explicit jobs still decide, whatever the host.
        assert EngineConfig(parallel_threshold=100, jobs=2).resolved_backend(100) == PROCESS_BACKEND

    def test_pool_and_routing_share_the_worker_count(self, cpus):
        from repro.engine import ProcessPoolBackend

        for count in (1, 3):
            cpus(count)
            for jobs in (None, 2):
                config = EngineConfig(jobs=jobs)
                assert ProcessPoolBackend(None, config).workers == config.worker_count()
                assert config.worker_count() == (jobs or count)
