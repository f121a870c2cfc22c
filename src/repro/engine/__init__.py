"""Unified, backend-pluggable compression engine (the batch-first surface).

Everything the package can do to a batch of SMILES — serial in-process
compression, the flat-array batch kernel, process-pool data parallelism,
baseline codecs — lives behind one protocol (:class:`CompressionBackend`),
one facade (:class:`ZSmilesEngine`) and one configuration object
(:class:`EngineConfig`).

Kernel vs reference
-------------------
The engine has two in-process parse implementations with one invariant:
**byte-identical output**.

* The **kernel** (:mod:`repro.engine.kernel`, backend name ``"kernel"``) is
  the default single-process hot path: the dictionary trie compiled once into
  flat integer transition arrays (:class:`~repro.engine.kernel.CodecAutomaton`),
  and a batch's lines parsed many at a time by the batch DP, which runs the
  trie walk, the shortest-path DP and the emit over a length-sorted group of
  lines in numpy.  Groups too small to repay numpy's per-call cost take the
  per-line DP over preallocated scratch.  Process-pool workers, the
  library's shard workers and the ``.zss`` block decoder run the same
  kernel.
* The **reference** (backend name ``"serial"``) is the seed's per-line
  trie walk (:func:`~repro.core.shortest_path.optimal_parse`); it stays the
  readable oracle that defines correct bytes — including the deterministic
  tie-break the golden fixtures pin (see :mod:`repro.core.shortest_path`).

Reach the oracle with ``backend="serial"``, in the configuration
(``EngineConfig(backend="serial")``) or per call
(``compress_batch(..., backend="serial")``).  Parity is enforced by
``tests/engine/test_kernel.py``, the golden fixtures and a hypothesis suite;
``benchmarks/test_throughput.py`` records the speedup in
``benchmarks/results/BENCH_codec.json``.
"""

from .backends import (
    BackendStats,
    BatchResult,
    CompressionBackend,
    KernelBackend,
    ProcessPoolBackend,
    SerialBackend,
    available_backends,
    backend_factory,
    create_backend,
    register_backend,
)
from .baselines import BaselineBackend
from .config import (
    AUTO_BACKEND,
    BACKEND_CHOICES,
    KERNEL_BACKEND,
    PROCESS_BACKEND,
    SERIAL_BACKEND,
    EngineConfig,
    EngineConfigError,
    default_worker_count,
)
from .engine import ZSmilesEngine
from .kernel import BlockKernel, CodecAutomaton, KernelUnsupportedError

__all__ = [
    "AUTO_BACKEND",
    "BACKEND_CHOICES",
    "KERNEL_BACKEND",
    "PROCESS_BACKEND",
    "SERIAL_BACKEND",
    "BackendStats",
    "BatchResult",
    "BaselineBackend",
    "BlockKernel",
    "CodecAutomaton",
    "CompressionBackend",
    "EngineConfig",
    "EngineConfigError",
    "KernelBackend",
    "KernelUnsupportedError",
    "ProcessPoolBackend",
    "SerialBackend",
    "ZSmilesEngine",
    "available_backends",
    "backend_factory",
    "create_backend",
    "default_worker_count",
    "register_backend",
]
