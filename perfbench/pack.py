"""The ``pack`` workload: the write path, with the serving layers idle.

Each iteration is one curation session over the seed's raw dump:

1. ingest the dump (filters plus dedup), three times, as the step is short;
2. train a dictionary on a reservoir sample (the set-up: training plus
   engine build, up to the first compressed record);
3. pack a 4-shard library at the CLI defaults; its 4096-record writer
   batches go to the engine's process pool;
4. repack it to a second dictionary with ``shard_jobs`` = nproc, which
   packs whole shards in a pool of its own.

Iterations repeat until the run's seconds are spent (at least three), and
every step reports its median over the iterations.  Outputs are checked after the timed steps:
the readback equals ``engine.preprocess`` of the input, and a repack with
``shard_jobs`` = 1 is byte-identical to the parallel one.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.curation import repack_library
from repro.library import CorpusLibrary, pack_library

from . import corpus
from .common import Context, Outcome, p50, p90, self_time_report
from .host import own_cpu_s, own_peak_rss_mb
from .spans import Tracer

MIN_ITERATIONS = 3
#: Ingest runs per iteration: the step is short, so it is sampled more often.
INGEST_REPEATS = 3


class _Iterations:
    """Per-step seconds of one measurement (untraced or traced)."""

    def __init__(self) -> None:
        self.ingest: List[float] = []
        self.setup: List[float] = []
        self.pack: List[float] = []
        self.repack: List[float] = []
        self.cpu: List[float] = []
        self.train: List[float] = []
        self.batch_sizes: List[int] = []
        self.lines_in = 0
        self.records_out = 0


def run(ctx: Context) -> Outcome:
    inputs, scale, seed = ctx.inputs, ctx.inputs.scale, ctx.seed
    dump = inputs.dump(seed)
    work = inputs.scratch("pack")
    jobs = os.cpu_count() or 1
    try:
        records = list(corpus.ingest_pipeline().process(dump))
        target = corpus.second_dictionary(records, scale, seed)
        state = _State(ctx, dump, work, records, target, jobs)
        tracer = Tracer(ctx.trace)
        untraced, traced = state.measure(tracer)
        rss_mb = own_peak_rss_mb()
        metrics = _end_to_end(untraced, len(records), rss_mb, state.ratio)
        outcome = Outcome(
            metrics=metrics,
            named=[
                ("setup_s", metrics["setup_s"], "s"),
                ("rss_mb", rss_mb, "MiB"),
                ("ingest_lines_per_s", metrics["phase1_per_s"], "lines/s"),
                ("pack_records_per_s", metrics["phase2_per_s"], "records/s"),
                ("repack_records_per_s", metrics["phase3_per_s"], "records/s"),
                ("compression_ratio", state.ratio, "ratio"),
                ("iterations", float(len(untraced.pack)), "count"),
            ],
            attempted=state.attempted,
            failed=state.failed,
        )
        if traced is not None:
            traced_metrics = _end_to_end(traced, len(records), rss_mb, state.ratio)
            outcome.overhead = {
                name: traced_metrics[name] - value for name, value in metrics.items()
            }
            outcome.layers = state.layers(traced, tracer)
            outcome.tracer = tracer
            outcome.report = self_time_report(tracer)
            outcome.attempted, outcome.failed = state.attempted, state.failed
        return outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _end_to_end(samples: _Iterations, records: int, rss_mb: float, ratio: float) -> Dict[str, float]:
    ingest, pack, repack = samples.ingest, samples.pack, samples.repack
    return {
        "setup_s": p50(samples.setup),
        "rss_mb": rss_mb,
        "compression_ratio": ratio,
        "phase1_per_s": samples.lines_in / p50(ingest),
        "phase1_p50_us": p50(ingest) * 1e6,
        "phase1_p90_us": p90(ingest) * 1e6,
        "phase2_per_s": records / p50(pack),
        "phase2_p90_us": p90(pack) * 1e6,
        "phase3_per_s": records / p50(repack),
        "phase3_p90_us": p90(repack) * 1e6,
    }


class _State:
    """One run's inputs, correctness tally and first-iteration outputs."""

    def __init__(self, ctx: Context, dump: Path, work: Path, records: List[str], target, jobs: int):
        self.ctx = ctx
        self.dump = dump
        self.work = work
        self.records = records
        self.target = target
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.expected: Optional[List[str]] = None
        self.engine = None
        self.ratio = 0.0
        self.payload_bytes = 0
        self.disk_bytes = 0
        self.repack_serial_s = 0.0
        self.iteration = 0

    def measure(self, tracer: Tracer):
        """Iterate for the run's seconds: ``(untraced, traced)`` samples.

        With tracing on, untraced and traced iterations alternate, first and
        second in turn, for twice the seconds, so host drift falls on both
        alike; ``traced`` is None otherwise.
        """
        modes = [Tracer(False), tracer] if tracer.enabled else [tracer]
        samples = [_Iterations() for _ in modes]
        started = time.perf_counter()
        pairs = list(zip(modes, samples))
        while (
            len(samples[-1].pack) < MIN_ITERATIONS
            or time.perf_counter() - started < self.ctx.seconds * len(modes)
        ):
            for mode, out in pairs:
                self._iterate(out, mode)
            pairs.reverse()
        return samples[0], samples[1] if tracer.enabled else None

    def _iterate(self, samples: _Iterations, tracer: Tracer) -> None:
        ctx, scale = self.ctx, self.ctx.inputs.scale
        library = self.work / f"library-{self.iteration}"
        repacked = self.work / f"repacked-{self.iteration}"
        with tracer.span("pack.iteration"):
            for _ in range(INGEST_REPEATS):
                with ctx.window("ingest"), tracer.span("curation.ingest"):
                    started = time.perf_counter()
                    pipeline = corpus.ingest_pipeline()
                    records = list(pipeline.process(self.dump))
                    samples.ingest.append(time.perf_counter() - started)
            samples.lines_in = pipeline.stats.lines_in
            samples.records_out = pipeline.stats.records_out
            with ctx.window("setup"), tracer.span("dictionary.train"):
                started = time.perf_counter()
                engine = corpus.train(records, scale, ctx.seed)
                samples.train.append(time.perf_counter() - started)
                engine.compress_batch(records[:1])
                samples.setup.append(time.perf_counter() - started)
            if tracer.enabled:
                _trace_compress(engine, tracer, samples.batch_sizes)
            cpu = own_cpu_s(children=True)
            with ctx.window("pack"), tracer.span("library.pack"):
                started = time.perf_counter()
                info = pack_library(library, records, engine, shards=corpus.SHARDS)
                engine.close()
                samples.pack.append(time.perf_counter() - started)
            with ctx.window("repack"), tracer.span("library.repack"):
                started = time.perf_counter()
                repack_ok = self._repack(library, repacked, self.jobs)
                samples.repack.append(time.perf_counter() - started)
            samples.cpu.append(own_cpu_s(children=True) - cpu)
        self._check(engine, records, library, repacked, info, repack_ok)
        shutil.rmtree(library, ignore_errors=True)
        shutil.rmtree(repacked, ignore_errors=True)
        self.iteration += 1

    def _repack(self, source: Path, destination: Path, jobs: int) -> bool:
        """Repack with full readback verification; a failed verify is an error."""
        try:
            repack_library(source, destination, self.target, shard_jobs=jobs)
        except Exception as exc:  # counted in error_rate, never raised
            print(f"repack failed: {type(exc).__name__}: {exc}")
            return False
        return True

    def _check(self, engine, records, library, repacked, info, repack_ok) -> None:
        """Untimed: readback, duplicate-free ingest, repack byte identity."""
        if self.expected is None:
            self.expected = [engine.preprocess(record) for record in self.records]
            self.engine = engine
            self.payload_bytes = info.payload_bytes
            self.disk_bytes = corpus.disk_bytes(library)
            self.ratio = self.disk_bytes / corpus.input_bytes(self.records)
        # One operation per record read back, plus the ingest and repack checks.
        self.attempted += len(self.expected) + 2
        if records != self.records or len(records) != self.ctx.inputs.scale.records:
            self.failed += 1
        with CorpusLibrary.open(library) as packed:
            readback = list(packed.iter_all())
        if len(readback) != len(self.expected):
            self.failed += len(self.expected)
        else:
            self.failed += sum(got != want for got, want in zip(readback, self.expected))
        if not repack_ok:
            self.failed += 1
        elif self.iteration == 0:
            self.attempted += 1
            serial = self.work / "repacked-serial"
            started = time.perf_counter()
            ok = self._repack(library, serial, 1)
            self.repack_serial_s = time.perf_counter() - started
            if not ok or _tree_bytes(serial) != _tree_bytes(repacked):
                self.failed += 1
            shutil.rmtree(serial, ignore_errors=True)

    def layers(self, traced: _Iterations, tracer: Tracer) -> Dict[str, float]:
        """Per-layer metrics from the traced iterations plus in-process probes."""
        records = self.records
        count = len(records)
        engine = self.engine
        with tracer.span("preprocess"):
            started = time.perf_counter()
            for record in records:
                engine.preprocess(record)
            preprocess_s = time.perf_counter() - started
        with tracer.span("engine.compress_batch[kernel]"):
            started = time.perf_counter()
            compressed = engine.compress_batch(records, backend="kernel")
            compress_s = time.perf_counter() - started
        with tracer.span("engine.decompress_batch[kernel]"):
            started = time.perf_counter()
            restored = engine.decompress_batch(compressed.records, backend="kernel")
            decompress_s = time.perf_counter() - started
        self.attempted += count
        self.failed += sum(got != want for got, want in zip(restored.records, self.expected))
        stats = compressed.stats
        table = tracer.self_times()
        pack_self = table["library.pack"][2] / table["library.pack"][0]
        pooled = sum(
            engine.config.resolved_backend(size) == "process" for size in traced.batch_sizes
        )
        input_size = corpus.input_bytes(records)
        return {
            "curation.ingest_s": p50(traced.ingest),
            "curation.accept_ratio": traced.records_out / traced.lines_in,
            "dictionary.train_s": p50(traced.train),
            "dictionary.entries": float(len(engine.table)),
            "preprocess.us_per_record": preprocess_s / count * 1e6,
            "engine.compress_us_per_record": compress_s / count * 1e6,
            "engine.escape_ratio": stats.escapes / (stats.matches + stats.escapes),
            "engine.pool_batch_share": pooled / max(len(traced.batch_sizes), 1),
            "engine.decompress_us_per_record": decompress_s / count * 1e6,
            "store.write_us_per_record": pack_self / count * 1e6,
            "store.payload_ratio": self.payload_bytes / input_size,
            "store.overhead_bytes": float(self.disk_bytes - self.payload_bytes),
            "library.spawn_s": p50(traced.repack) - self.repack_serial_s,
            "library.pack_cpu_s": p50(traced.cpu),
        }


def _trace_compress(engine, tracer: Tracer, sizes: List[int]) -> None:
    """Record every writer batch the engine compresses as a span."""
    compress_batch = engine.compress_batch

    def traced(batch, backend=None):
        sizes.append(len(batch))
        with tracer.span("engine.compress_batch"):
            return compress_batch(batch, backend=backend)

    engine.compress_batch = traced


def _tree_bytes(directory: Path) -> Dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
