"""The simulated CUDA device that reproduces Figure 5.

Real process-pool execution is the engine's ``process`` backend
(:class:`repro.engine.ProcessPoolBackend`); :func:`default_worker_count` is
re-exported from :mod:`repro.engine.config` for its pool size.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "..engine.config": ["default_worker_count"],
    ".gpu_model": [
        "CPU_PROFILE", "GPU_PROFILE", "WARP_SIZE", "DeviceProfile", "KernelCounters",
        "SimulatedDevice",
    ],
    ".kernels": ["compression_kernel", "decompression_kernel"],
    ".performance_model": [
        "PerformancePoint", "PerformanceSweep", "run_performance_sweep",
    ],
})
