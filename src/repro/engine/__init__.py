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
  per-line DP over preallocated scratch.  Process-pool workers and the
  ``.zss`` block decoder run the same kernel.
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

The process pool
----------------
:class:`ProcessPoolBackend` is the package's one process pool: spawned
workers, each holding the codec and running the kernel over its chunks of
a batch.  A pool pays only when the work it takes over outweighs its start:
spawning the workers, their imports and the codec unpickling before the
first task, and the shutdown, which :data:`~repro.engine.config.POOL_START_COST_S`
puts at half a second.  Two routes lead to it:

* per batch, ``"auto"`` sends a batch of at least ``parallel_threshold``
  records to the engine's pool, which lives until :meth:`ZSmilesEngine.close`;
  streams of unknown length (``compress_file``, ``store.pack_file``) route
  this way;
* per pack, :meth:`ZSmilesEngine.pack_backend` (a library pack or repack,
  whose length is known) compresses the first batch in-process, times it,
  and starts a pool of ``shard_jobs`` workers only if
  :func:`~repro.engine.config.pool_repays` for the records left; that pool
  is shut down when the pack ends.

The package inits are lazy, so a spawned worker imports the engine it
unpickles and not the serving or curation layers, and numpy only when it
first compresses a batch.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".backends": [
        "BatchResult", "CompressionBackend", "KernelBackend", "ProcessPoolBackend",
        "SerialBackend", "available_backends", "backend_factory", "create_backend",
        "register_backend",
    ],
    ".baselines": ["BaselineBackend"],
    ".config": [
        "AUTO_BACKEND", "BACKEND_CHOICES", "KERNEL_BACKEND", "PROCESS_BACKEND",
        "SERIAL_BACKEND", "EngineConfig", "EngineConfigError", "default_worker_count",
    ],
    ".engine": ["ZSmilesEngine"],
    ".kernel": ["BlockKernel", "CodecAutomaton", "KernelUnsupportedError"],
})
