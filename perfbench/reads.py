"""The ``read-cold`` and ``read-hot`` workloads: random access over HTTP.

The seed's library (the one ``pack`` produces) is served by
``ServerFleet(workers=1)``, a spawned process, so the load never shares the
server's interpreter lock.  The load is a closed loop from this process:
2 x nproc threads, each owning one ``CorpusClient`` connection and sending
its next request only when the previous reply has arrived, as a screening
worker fetching ligand after ligand does.  With only nproc threads the
client and the server take about the same CPU per hot get, so the server
sits at the edge of saturation and a get waits behind another one or not
from one run to the next: in an interleaved ten-seed comparison on a 2-core
host, the hot get p50 spread (quartile distance over median) was 0.53 with
nproc threads and 0.20 with twice as many, which keep a queue at the
server.

Three phases share the run's seconds after an untimed warm-up: single gets,
``get_many`` batches of 32 and range streams of 1024 records.  They take
turns in windows of a quarter second, round after round, so every phase
sees the same drift of the host, and each metric pools the samples of all of
a phase's windows.  Host speed
swings from second to second; the mean over a run is what repeats.  In a
comparison of estimators over the same six runs on a 2-core host, keeping
only the faster half of the windows widened the run-to-run spread of every
read metric (hot get p50 0.12 pooled, 0.14 from the faster half, 0.19 from
the fastest quarter).

* ``read-cold`` draws indices uniformly over the whole library (8x the
  default 16-block cache), so nearly every request decodes a block.
* ``read-hot`` draws them zipf-skewed from 8 consecutive blocks (half the
  cache), warmed before timing, so the hit ratio is about 1 and what is
  left is the fixed per-request cost of client, wire, server loop, reader
  pool thread hop and telemetry.

The measurement runs beside one idle-priority spinner per CPU, which keeps
the virtual CPUs from halting between round trips (``host.IdleSpinners``).
Latency percentiles come from the client's own samples: the server's
histograms start at 0.5 ms, too coarse for a ~0.3 ms hot get, so they
supply only sums and counts.  Reads are served from the OS page cache;
the latencies are this host's, not a storage device's.  Every record
returned is compared with a direct ``CorpusLibrary`` read of the library.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.library import AsyncCorpusLibrary, CorpusLibrary
from repro.server.client import CorpusClient
from repro.server.fleet import ServerFleet
from repro.store.writer import DEFAULT_RECORDS_PER_BLOCK

from . import corpus
from .common import Context, Outcome, p50, p90, self_time_report
from .host import IdleSpinners, own_cpu_s, peak_rss_mb, process_cpu_s
from .spans import Tracer

PHASES = ("get", "batch", "stream")
#: Server route label of each phase in the telemetry counters.
ROUTES = {"get": "single", "batch": "batch", "stream": "stream"}
BATCH_RECORDS = 32
STREAM_RECORDS = 1024
HOT_BLOCKS = 8
ZIPF_EXPONENT = 1.0
#: Load threads per CPU (see the module docstring).
THREADS_PER_CPU = 2
#: Fleet start-ups per run; ``setup_s`` is their median.
FLEET_STARTS = 5
#: Seconds of one measurement window; the phases take turns in rounds of
#: one window each, so 24 seconds make 32 rounds.
WINDOW_S = 0.25
WARMUP_S = 0.5
#: Requests per in-process library probe (traced runs).
PROBE_GETS = 1000


class Indices:
    """The seeded index distribution of one read workload."""

    def __init__(self, records: int, hot: bool, seed: int):
        self.records = records
        self.hot = hot
        self.lo, self.hi = 0, records
        if hot:
            rng = random.Random(f"hot-set/{seed}")
            extent = min(HOT_BLOCKS * DEFAULT_RECORDS_PER_BLOCK, records)
            blocks = (records - extent) // DEFAULT_RECORDS_PER_BLOCK
            self.lo = rng.randint(0, blocks) * DEFAULT_RECORDS_PER_BLOCK
            self.hi = self.lo + extent
            self.ranked = list(range(self.lo, self.hi))
            rng.shuffle(self.ranked)
            weights = (1.0 / rank ** ZIPF_EXPONENT for rank in range(1, extent + 1))
            self.cumulative = list(itertools.accumulate(weights))

    def many(self, rng: random.Random, count: int) -> List[int]:
        if not self.hot:
            return [rng.randrange(self.records) for _ in range(count)]
        return rng.choices(self.ranked, cum_weights=self.cumulative, k=count)

    def stream_start(self, rng: random.Random) -> int:
        """A stream start whose 1024 records all lie in the index range."""
        return min(self.many(rng, 1)[0], self.hi - STREAM_RECORDS)


@dataclass
class PhaseResult:
    seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    requests: int = 0
    records: int = 0
    attempted: int = 0
    failed: int = 0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)


def run(ctx: Context, hot: bool) -> Outcome:
    # Inputs are prepared first, so only the measurement runs beside the
    # spinners (see host.IdleSpinners).
    library, input_size = ctx.inputs.library(ctx.seed)
    with CorpusLibrary.open(library) as direct:
        expected = list(direct.iter_all())
    with IdleSpinners():
        return _measure(ctx, hot, library, input_size, expected)


def _measure(
    ctx: Context, hot: bool, library: Path, input_size: int, expected: List[str]
) -> Outcome:
    ratio = corpus.disk_bytes(library) / input_size
    indices = Indices(len(expected), hot, ctx.seed)
    load = _Load(ctx, expected, indices)

    ready: List[float] = []
    tracer = Tracer(ctx.trace)
    fleet: Optional[ServerFleet] = None
    try:
        for _ in range(FLEET_STARTS):
            if fleet is not None:
                fleet.stop()
            with ctx.window("setup"):
                started = time.perf_counter()
                fleet = ServerFleet(library, workers=1).start()
                ready.append(time.perf_counter() - started)
        untraced, traced = load.phases(fleet, tracer)
        rss_mb = peak_rss_mb(fleet.worker_pids()[0])
        if ctx.trace:
            telemetry_on, telemetry_off = load.telemetry_pairs(fleet, library)
    finally:
        load.close()
        if fleet is not None:
            fleet.stop()

    pooled = _pooled(untraced)
    metrics = _end_to_end(pooled, ready, rss_mb, ratio)
    outcome = Outcome(
        metrics=metrics,
        named=[
            ("setup_s", metrics["setup_s"], "s"),
            ("rss_mb", rss_mb, "MiB"),
            ("get_rps", metrics["phase1_per_s"], "req/s"),
            ("get_p50_us", metrics["phase1_p50_us"], "us"),
            ("get_p90_us", metrics["phase1_p90_us"], "us"),
            ("batch_records_per_s", metrics["phase2_per_s"], "records/s"),
            ("batch_p90_us", metrics["phase2_p90_us"], "us"),
            ("stream_records_per_s", metrics["phase3_per_s"], "records/s"),
            ("stream_p90_us", metrics["phase3_p90_us"], "us"),
            ("compression_ratio", ratio, "ratio"),
            *((f"{phase}_samples", float(len(pooled[phase].latencies)), "count")
              for phase in PHASES),
        ],
        attempted=load.attempted,
        failed=load.failed,
    )
    if traced is not None:
        traced_metrics = _end_to_end(_pooled(traced), ready, rss_mb, ratio)
        outcome.overhead = {
            name: traced_metrics[name] - value for name, value in metrics.items()
        }
        outcome.layers = _layers(untraced, ready)
        outcome.layers.update(_library_probe(library, indices, tracer, ctx.seed))
        outcome.layers["telemetry.overhead_us"] = (
            _mean(_merge(telemetry_on).latencies) - _mean(_merge(telemetry_off).latencies)
        ) * 1e6
        outcome.tracer = tracer
        outcome.report = self_time_report(tracer, 1e6, "us")
    return outcome


def _pooled(phases: Dict[str, List[PhaseResult]]) -> Dict[str, PhaseResult]:
    """Each phase's windows as one result, samples pooled."""
    return {phase: _merge(phases[phase]) for phase in PHASES}


def _end_to_end(
    pooled: Dict[str, PhaseResult], ready: List[float], rss_mb: float, ratio: float
) -> Dict[str, float]:
    get, batch, stream = (pooled[phase] for phase in PHASES)
    return {
        "setup_s": p50(ready),
        "rss_mb": rss_mb,
        "compression_ratio": ratio,
        "phase1_per_s": get.requests / get.seconds,
        "phase1_p50_us": p50(get.latencies) * 1e6,
        "phase1_p90_us": p90(get.latencies) * 1e6,
        "phase2_per_s": batch.records / batch.seconds,
        "phase2_p90_us": p90(batch.latencies) * 1e6,
        "phase3_per_s": stream.records / stream.seconds,
        "phase3_p90_us": p90(stream.latencies) * 1e6,
    }


class _Load:
    """The closed-loop load generator and the run's correctness tally."""

    def __init__(self, ctx: Context, expected: List[str], indices: Indices):
        self.ctx = ctx
        self.expected = expected
        self.indices = indices
        self.threads = THREADS_PER_CPU * (os.cpu_count() or 1)
        self.rounds = max(2, round(ctx.seconds / (len(PHASES) * WINDOW_S)))
        self.window_s = ctx.seconds / (len(PHASES) * self.rounds)
        self.attempted = 0
        self.failed = 0
        self._rounds = itertools.count()
        #: One keep-alive connection per load thread and server, kept for
        #: the whole run, so no window pays for connecting.
        self._clients: Dict[str, List[CorpusClient]] = {}

    def clients(self, url: str) -> List[CorpusClient]:
        if url not in self._clients:
            self._clients[url] = [CorpusClient(url) for _ in range(self.threads)]
        return self._clients[url]

    def close(self) -> None:
        for clients in self._clients.values():
            for client in clients:
                client.close()
        self._clients.clear()

    def warm(self, url: str, phases: Sequence[str] = PHASES) -> None:
        """Untimed: fill the hot set, then run each phase briefly."""
        if self.indices.hot:
            with CorpusClient(url) as client:
                client.slice(self.indices.lo, self.indices.hi)
        for phase in phases:
            self.drive(url, phase, WARMUP_S, Tracer(False))

    def phases(self, fleet: ServerFleet, tracer: Tracer):
        """Rounds of one window per phase: ``(untraced, traced)``.

        With tracing on, every untraced window is paired with a traced one
        of the same phase, first and second in turn, so host drift falls on
        both sides alike; ``traced`` is None otherwise.  Telemetry counters
        are scraped around every window only when tracing.
        """
        pid = fleet.worker_pids()[0]
        modes = [Tracer(False), tracer] if tracer.enabled else [tracer]
        windows: List[Dict[str, List[PhaseResult]]] = [
            {phase: [] for phase in PHASES} for _ in modes
        ]
        self.warm(fleet.url)
        with CorpusClient(fleet.url) as control:
            counters = _scrape(control) if tracer.enabled else {}
            for round_no in range(self.rounds):
                pairs = list(zip(modes, windows))
                if round_no % 2:
                    pairs.reverse()
                for phase in PHASES:
                    for mode, out in pairs:
                        server_cpu = process_cpu_s(pid)
                        client_cpu = own_cpu_s()
                        with self.ctx.window(phase):
                            result = self.drive(fleet.url, phase, self.window_s, mode)
                        result.client_cpu_s = own_cpu_s() - client_cpu
                        result.server_cpu_s = process_cpu_s(pid) - server_cpu
                        if tracer.enabled:
                            after = _scrape(control)
                            result.counters = {
                                key: value - counters.get(key, 0.0)
                                for key, value in after.items()
                            }
                            counters = after
                        out[phase].append(result)
        return windows[0], windows[1] if tracer.enabled else None

    def drive(self, url: str, phase: str, seconds: float, tracer: Tracer) -> PhaseResult:
        """Run *phase* in a closed loop on every thread for *seconds*."""
        round_no = next(self._rounds)
        gate = threading.Barrier(self.threads + 1)
        parts = [PhaseResult() for _ in range(self.threads)]
        workers = [
            threading.Thread(
                target=self._worker,
                args=(client, phase, seconds, tracer, gate, parts[k],
                      random.Random(f"{self.ctx.seed}/{phase}/{round_no}/{k}")),
            )
            for k, client in enumerate(self.clients(url))
        ]
        for worker in workers:
            worker.start()
        gate.wait()
        started = time.perf_counter()
        for worker in workers:
            worker.join()
        total = _merge(parts)
        total.seconds = time.perf_counter() - started
        self.attempted += sum(part.attempted for part in parts)
        self.failed += sum(part.failed for part in parts)
        return total

    def _worker(self, client, phase, seconds, tracer, gate, out, rng) -> None:
        expected, indices = self.expected, self.indices
        gate.wait()
        deadline = time.perf_counter() + seconds
        with tracer.span(f"load.{phase}"):
            while time.perf_counter() < deadline:
                if phase == "get":
                    wanted = indices.many(rng, 1)
                elif phase == "batch":
                    wanted = indices.many(rng, BATCH_RECORDS)
                else:
                    start = indices.stream_start(rng)
                    wanted = range(start, start + STREAM_RECORDS)
                out.attempted += 1
                try:
                    started = time.perf_counter()
                    if phase == "get":
                        got = [client.get(wanted[0])]
                    elif phase == "batch":
                        got = client.get_many(wanted)
                    else:
                        got = client.slice(wanted.start, wanted.stop)
                    finished = time.perf_counter()
                except Exception:  # counted in error_rate, never raised
                    out.failed += 1
                    continue
                tracer.add(f"client.{phase}", started, finished)
                out.latencies.append(finished - started)
                out.requests += 1
                out.records += len(got)
                if got != [expected[i] for i in wanted]:
                    out.failed += 1

    def telemetry_pairs(self, fleet: ServerFleet, library: Path):
        """Get windows alternating between *fleet* and one with telemetry off."""
        previous = os.environ.get("ZSMILES_TELEMETRY")
        os.environ["ZSMILES_TELEMETRY"] = "off"
        try:
            untelemetered = ServerFleet(library, workers=1).start()
        finally:
            if previous is None:
                del os.environ["ZSMILES_TELEMETRY"]
            else:
                os.environ["ZSMILES_TELEMETRY"] = previous
        try:
            self.warm(untelemetered.url, ("get",))
            on: List[PhaseResult] = []
            off: List[PhaseResult] = []
            pairs = [(fleet.url, on), (untelemetered.url, off)]
            for _ in range(self.rounds):
                for url, out in pairs:
                    with self.ctx.window("telemetry"):
                        out.append(self.drive(url, "get", self.window_s, Tracer(False)))
                pairs.reverse()
            return on, off
        finally:
            untelemetered.stop()


def _scrape(control: CorpusClient) -> Dict[str, float]:
    """The worker's telemetry counters and ``/stats`` counters, flattened."""
    flat: Dict[str, float] = {}
    for family in control.metrics_snapshot()["metrics"]:
        for series in family["series"]:
            key = "/".join([family["name"], *series["values"]])
            if family["kind"] == "histogram":
                flat[key + ":sum"] = series["sum"]
                flat[key + ":count"] = series["count"]
            else:
                flat[key] = series["value"]
    for name, value in control.stats()["counters"].items():
        flat["stats/" + name] = value
    return flat


def _merge(windows: List[PhaseResult]) -> PhaseResult:
    """One phase's windows as a single result: sums, and every sample."""
    total = PhaseResult()
    for window in windows:
        total.seconds += window.seconds
        total.latencies.extend(window.latencies)
        total.requests += window.requests
        total.records += window.records
        total.client_cpu_s += window.client_cpu_s
        total.server_cpu_s += window.server_cpu_s
        for key, value in window.counters.items():
            total.counters[key] = total.counters.get(key, 0.0) + value
    return total


def _layers(windows: Dict[str, List[PhaseResult]], ready: List[float]) -> Dict[str, float]:
    """Per-layer metrics from the telemetry and CPU deltas of every window."""
    phases = {phase: _merge(results) for phase, results in windows.items()}
    layers: Dict[str, float] = {"server.ready_s": p50(ready)}
    evictions = requests_total = 0.0
    for phase in PHASES:
        result = phases[phase]
        counters = result.counters
        route = ROUTES[phase]
        requests = counters.get(f"zsmiles_server_request_seconds/{route}:count", 0.0)
        per_request = 1.0 / requests if requests else 0.0
        server_s = counters.get(f"zsmiles_server_request_seconds/{route}:sum", 0.0) * per_request
        decode_s = counters.get("zsmiles_store_block_decode_seconds:sum", 0.0) * per_request
        hits = counters.get("zsmiles_cache_lookups_total/hit", 0.0)
        misses = counters.get("zsmiles_cache_lookups_total/miss", 0.0)
        served = counters.get("zsmiles_server_records_served_total", 0.0)
        decoded_lines = counters.get("zsmiles_kernel_lines_total/decompress", 0.0)
        layers[f"server.request_us.{phase}"] = server_s * 1e6
        layers[f"client.wire_us.{phase}"] = (_mean(result.latencies) - server_s) * 1e6
        layers[f"store.decode_us_per_request.{phase}"] = decode_s * 1e6
        layers[f"store.blocks_per_request.{phase}"] = (
            counters.get("zsmiles_store_blocks_decoded_total", 0.0) * per_request
        )
        layers[f"store.decode_amplification.{phase}"] = decoded_lines / served if served else 0.0
        layers[f"store.cache_hit_ratio.{phase}"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        layers[f"server.nondecode_us.{phase}"] = (server_s - decode_s) * 1e6
        layers[f"server.cpu_us_per_request.{phase}"] = result.server_cpu_s * per_request * 1e6
        layers[f"client.cpu_us_per_request.{phase}"] = (
            result.client_cpu_s / result.requests * 1e6 if result.requests else 0.0
        )
        evictions += counters.get("zsmiles_cache_evictions_total", 0.0)
        requests_total += requests
    layers["store.evictions_per_request"] = evictions / requests_total if requests_total else 0.0
    deflated = sum(phases[p].counters.get("stats/deflated", 0.0) for p in ("batch", "stream"))
    bulk = phases["batch"].counters.get("stats/batch", 0.0) + phases["stream"].counters.get(
        "stats/stream", 0.0
    )
    layers["server.deflate_share"] = deflated / bulk if bulk else 0.0
    stream = phases["stream"].counters
    stream_server_s = stream.get("zsmiles_server_request_seconds/stream:sum", 0.0)
    layers["stream.decode_share"] = (
        stream.get("zsmiles_store_block_decode_seconds:sum", 0.0) / stream_server_s
        if stream_server_s
        else 0.0
    )
    return layers


def _library_probe(library: Path, indices: Indices, tracer: Tracer, seed: int) -> Dict[str, float]:
    """In-process ``CorpusLibrary.get`` and the async thread hop around it.

    Both readers get each index in turn, each with its own cache, so host
    drift falls on both alike and cold indices are cold for both.
    """
    wanted = indices.many(random.Random(f"probe/{seed}"), PROBE_GETS)

    async def probe() -> Dict[str, float]:
        sync_s = async_s = 0.0
        with CorpusLibrary.open(library) as direct:
            async with AsyncCorpusLibrary.open(library) as pooled:
                if indices.hot:
                    direct.slice(indices.lo, indices.hi)
                    await pooled.get_many(range(indices.lo, indices.hi))
                with tracer.span("probe.library"):
                    for index in wanted:
                        started = time.perf_counter()
                        direct.get(index)
                        middle = time.perf_counter()
                        await pooled.get(index)
                        ended = time.perf_counter()
                        tracer.add("library.get", started, middle)
                        tracer.add("async_library.get", middle, ended)
                        sync_s += middle - started
                        async_s += ended - middle
        return {
            "library.get_us": sync_s / len(wanted) * 1e6,
            "library.thread_hop_us": (async_s - sync_s) / len(wanted) * 1e6,
        }

    return asyncio.run(probe())


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
