"""The simulated CUDA device that reproduces Figure 5.

Real process-pool execution is the engine's ``process`` backend
(:class:`repro.engine.ProcessPoolBackend`); :func:`default_worker_count` is
re-exported from :mod:`repro.engine.config` for its pool size.
"""

from ..engine.config import default_worker_count
from .gpu_model import (
    CPU_PROFILE,
    GPU_PROFILE,
    WARP_SIZE,
    DeviceProfile,
    KernelCounters,
    SimulatedDevice,
)
from .kernels import compression_kernel, decompression_kernel
from .performance_model import PerformancePoint, PerformanceSweep, run_performance_sweep

__all__ = [
    "default_worker_count",
    "CPU_PROFILE",
    "GPU_PROFILE",
    "WARP_SIZE",
    "DeviceProfile",
    "KernelCounters",
    "SimulatedDevice",
    "compression_kernel",
    "decompression_kernel",
    "PerformancePoint",
    "PerformanceSweep",
    "run_performance_sweep",
]
