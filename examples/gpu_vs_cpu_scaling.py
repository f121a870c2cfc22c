#!/usr/bin/env python3
"""Serial vs accelerated ZSMILES: the Figure 5 experiment plus a real CPU pool.

The paper compares its serial C++ implementation against a CUDA version and
finds a ≈7× compression / ≈2× decompression speedup, flat in ``Lmax`` because
the kernels are memory-bound.  This reproduction has no GPU, so two things are
shown side by side:

* the *simulated* device model (calibrated EPYC-core vs A100 profiles fed with
  real kernel work counts) regenerating the Figure 5 curves, and
* the *real* process-pool backend compressing a batch on all local cores,
  demonstrating that the per-record decomposition parallelizes losslessly.

Run with:  python examples/gpu_vs_cpu_scaling.py
"""

from __future__ import annotations

import time

from repro import ZSmilesCodec, ZSmilesEngine
from repro.datasets import mixed
from repro.metrics.reporting import ResultTable
from repro.parallel import CPU_PROFILE, GPU_PROFILE, run_performance_sweep


def simulated_figure5() -> None:
    corpus = mixed.generate(1_200, seed=17)
    sweep = run_performance_sweep(corpus[:600], corpus[600:], lmax_values=(5, 8, 15))

    for operation, label in (("compression", "Figure 5a"), ("decompression", "Figure 5b")):
        table = ResultTable(
            title=f"{label} — normalized execution time vs Lmax (simulated devices)",
            columns=["Backend", "Lmax=5", "Lmax=8", "Lmax=15"],
        )
        for profile in (CPU_PROFILE, GPU_PROFILE):
            series = {p.lmax: p.normalized for p in sweep.series(profile.name, operation)}
            table.add_row(profile.name, series[5], series[8], series[15])
        print(table.to_text())
        print(f"  -> speedup at Lmax=15: {sweep.speedup(operation):.2f}x "
              f"(paper: {'7x' if operation == 'compression' else '2x'})\n")


def real_process_pool() -> None:
    corpus = mixed.generate(3_000, seed=23)
    codec = ZSmilesCodec.train(corpus[:1_000], preprocessing=True, lmax=8)
    batch = corpus[1_000:]

    with ZSmilesEngine.from_codec(codec, backend="process", chunk_size=256) as engine:
        start = time.perf_counter()
        serial = engine.compress_batch(batch, backend="serial").records
        serial_time = time.perf_counter() - start

        start = time.perf_counter()
        result = engine.compress_batch(batch)
        parallel_time = time.perf_counter() - start

    assert result.records == serial  # identical output, any number of workers
    print("real CPU process pool:")
    print(f"  records:        {len(batch)}")
    print(f"  serial:         {serial_time:.2f} s")
    print(f"  {result.workers} workers:     {parallel_time:.2f} s "
          f"(speedup {serial_time / max(parallel_time, 1e-9):.2f}x, "
          "includes process start-up)")


def main() -> None:
    simulated_figure5()
    real_process_pool()


if __name__ == "__main__":
    main()
