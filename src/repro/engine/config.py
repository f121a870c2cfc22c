"""Consolidated engine configuration.

:class:`EngineConfig` collects every knob of the compression surface —
dictionary parameters (Algorithm 1), preprocessing, parse strategy and the
execution backend with its worker-pool shape — in one immutable dataclass, so
that one object fully describes how a
:class:`~repro.engine.engine.ZSmilesEngine` trains, preprocesses, parses and
executes batches.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..core.compressor import ParseStrategy
from ..dictionary.generator import DictionaryConfig
from ..dictionary.prepopulation import PrePopulation
from ..errors import ReproError
from ..preprocess.pipeline import PreprocessingPipeline, make_pipeline
from ..preprocess.ring_renumber import RingRenumberPolicy

#: Backend name that defers the kernel / process choice to the batch size.
AUTO_BACKEND = "auto"
#: Name of the in-process reference backend (the per-line oracle).
SERIAL_BACKEND = "serial"
#: Name of the in-process flat-array kernel backend (the default hot path).
KERNEL_BACKEND = "kernel"
#: Name of the process-pool backend.
PROCESS_BACKEND = "process"

#: Seconds a process pool costs a pack beyond its share of the work: the
#: spawn, each worker's imports and codec unpickling before its first task,
#: and the shutdown.  A 2-worker spawn pool took 0.42-0.56 s to run its
#: first task on a 2-vCPU host (see CHANGES.md).
POOL_START_COST_S = 0.5


class EngineConfigError(ReproError):
    """Raised when an :class:`EngineConfig` is inconsistent."""


def default_worker_count() -> int:
    """Worker processes used when none is specified (CPU count, at least 1)."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class EngineConfig:
    """Every knob of the compression engine in one place.

    Attributes
    ----------
    lmin, lmax, max_entries, min_occurrences, rank_mode:
        Algorithm 1 dictionary-training parameters (see
        :class:`~repro.dictionary.generator.DictionaryConfig`).
    prepopulation:
        Dictionary seeding policy (Table I "Pre-population").
    preprocessing:
        Apply ring-identifier renumbering before training and compression
        (Table I "Pre-processing").
    ring_policy:
        ``"innermost"`` (paper default) or ``"outermost"``.
    strategy:
        Optimal shortest-path parsing (paper) or greedy longest match.
    backend:
        Execution backend name: ``"serial"`` (the per-line reference
        oracle), ``"kernel"`` (the flat-array batch automaton of
        :mod:`repro.engine.kernel`), ``"process"`` (a pool whose workers run
        the kernel) or ``"auto"``.  ``"auto"`` runs batches of at least
        *parallel_threshold* records on the process pool and everything
        smaller on the kernel.  All produce identical bytes.
    jobs:
        Worker processes for the process-pool backend (``None`` = CPU count).
    chunk_size:
        Records per work item shipped to one worker.
    parallel_threshold:
        Minimum batch size before ``"auto"`` picks the process pool.
    """

    # Dictionary training (Algorithm 1).
    lmin: int = 2
    lmax: int = 8
    max_entries: Optional[int] = None
    min_occurrences: int = 2
    rank_mode: str = "savings"
    prepopulation: PrePopulation = PrePopulation.SMILES_ALPHABET

    # Preprocessing (Section IV-A).
    preprocessing: bool = True
    ring_policy: RingRenumberPolicy = "innermost"

    # Parsing (Section IV-D1).
    strategy: ParseStrategy = ParseStrategy.OPTIMAL

    # Execution backend.
    backend: str = AUTO_BACKEND
    jobs: Optional[int] = None
    chunk_size: int = 2048
    parallel_threshold: int = 4096

    def __post_init__(self) -> None:
        if isinstance(self.strategy, str):
            object.__setattr__(self, "strategy", ParseStrategy.from_name(self.strategy))
        if isinstance(self.prepopulation, str):
            object.__setattr__(
                self, "prepopulation", PrePopulation.from_name(self.prepopulation)
            )
        if self.jobs is not None and self.jobs < 1:
            raise EngineConfigError("jobs must be >= 1")
        if self.chunk_size < 1:
            raise EngineConfigError("chunk_size must be >= 1")
        if self.parallel_threshold < 0:
            raise EngineConfigError("parallel_threshold must be >= 0")

    # ------------------------------------------------------------------ #
    def dictionary_config(self) -> DictionaryConfig:
        """The training slice of this configuration."""
        return DictionaryConfig(
            lmin=self.lmin,
            lmax=self.lmax,
            max_entries=self.max_entries,
            prepopulation=self.prepopulation,
            min_occurrences=self.min_occurrences,
            rank_mode=self.rank_mode,
        )

    def build_pipeline(self) -> PreprocessingPipeline:
        """The preprocessing pipeline this configuration describes."""
        return make_pipeline(self.preprocessing, ring_policy=self.ring_policy)

    def replace(self, **changes: object) -> "EngineConfig":
        """A copy of this configuration with *changes* applied."""
        return dataclasses.replace(self, **changes)

    def worker_count(self) -> int:
        """Worker processes of the process pool: *jobs*, else the CPU count."""
        return self.jobs or default_worker_count()

    def resolved_backend(self, batch_size: int) -> str:
        """Concrete backend name for a batch of *batch_size* records.

        ``"auto"`` picks the process pool for large batches (at least
        *parallel_threshold* records) unless the pool would have a single
        worker (``jobs=1``, or no *jobs* on a one-CPU host), in which case
        spawning processes can never pay off.  Small batches run in-process
        on the flat-array kernel.
        """
        if self.backend != AUTO_BACKEND:
            return self.backend
        if batch_size < self.parallel_threshold or self.worker_count() == 1:
            return KERNEL_BACKEND
        return PROCESS_BACKEND


def pool_repays(records_left: int, seconds_per_record: float, workers: int) -> bool:
    """Whether a *workers*-process pool repays its start on the rest of a pack.

    In-process, the *records_left* records take ``records_left *
    seconds_per_record`` seconds; *workers* processes save at most
    ``1 - 1/workers`` of that, and the pool repays its start when that
    saving exceeds :data:`POOL_START_COST_S`.  One worker saves nothing.
    """
    saved = records_left * seconds_per_record * (1 - 1 / max(workers, 1))
    return saved > POOL_START_COST_S


#: Names accepted by the CLI and the engine for backend selection.
BACKEND_CHOICES: Tuple[str, ...] = (
    SERIAL_BACKEND,
    KERNEL_BACKEND,
    PROCESS_BACKEND,
    AUTO_BACKEND,
)

ConfigLike = Union[EngineConfig, None]
