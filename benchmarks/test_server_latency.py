"""Loopback load harness for the HTTP serving front.

N concurrent blocking clients hammer one :class:`CorpusServer` over loopback
in three modes — single-get, batched get, and chunked range streaming — and
the measurements land in ``benchmarks/results/BENCH_server.json``
(git-ignored, so test runs leave the tree clean): the machine-readable
latency trajectory of the network tier, next to ``BENCH_codec.json``'s
codec trajectory.

Like every benchmark here, assertions gate on *parity* (every byte a client
receives equals a direct :class:`CorpusLibrary` read) and on the run
completing — never on timings — so CI's ``serve-smoke`` job runs this at
``ZSMILES_BENCH_SCALE=smoke`` as a serving-front tripwire without flaking
on runner speed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from pathlib import Path
from urllib.parse import urlparse

import pytest

from repro.engine import ZSmilesEngine
from repro.library import CorpusLibrary, pack_library
from repro.metrics.reporting import ResultTable
from repro.server import BackgroundServer, CorpusClient, ServerFleet

#: Machine-readable server-latency record (committed perf trajectory).
BENCH_SERVER_PATH = Path(__file__).resolve().parent / "results" / "BENCH_server.json"

#: Concurrent clients hammering the server (the acceptance bar is >= 8).
CLIENTS = 8
#: Single-get requests issued per client.
REQUESTS_PER_CLIENT = 64
#: Indices per batched get_many request.
BATCH_SIZE = 32
#: Shards in the served library.
SHARDS = 4
#: Server-side async reader-pool size (the backpressure bound).
POOL_SIZE = 4
#: Worker counts for the multi-process scaling curve.
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def serving_corpus(corpus):
    return corpus[: min(2_000, len(corpus))]


@pytest.fixture(scope="module")
def served_library(tmp_path_factory, shared_codec, serving_corpus):
    directory = tmp_path_factory.mktemp("server_latency") / "corpus.library"
    with ZSmilesEngine.from_codec(shared_codec, backend="serial") as engine:
        pack_library(directory, serving_corpus, engine,
                     shards=SHARDS, records_per_block=64)
    return directory


@pytest.fixture(scope="module")
def server(served_library):
    with BackgroundServer(served_library, readers=POOL_SIZE) as srv:
        yield srv


def _client_indices(total: int, seed: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(total) for _ in range(REQUESTS_PER_CLIENT)]


def _fan_out(url: str, work) -> tuple:
    """Run *work(client, slot)* on CLIENTS threads; returns (results, seconds).

    Each thread owns its client (its own keep-alive socket), all start on a
    shared barrier so the timed window covers genuinely concurrent load.
    """
    results: list = [None] * CLIENTS
    errors: list = []
    barrier = threading.Barrier(CLIENTS + 1)

    def run(slot: int) -> None:
        try:
            with CorpusClient(url, timeout=60.0) as client:
                barrier.wait()
                results[slot] = work(client, slot)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors
    return results, elapsed


def _mode(seconds: float, requests: int, records: int) -> dict:
    seconds = max(seconds, 1e-9)
    return {
        "seconds": round(seconds, 6),
        "requests": requests,
        "records": records,
        "us_per_request": round(seconds / max(requests, 1) * 1e6, 2),
        "requests_per_sec": round(requests / seconds, 1),
        "records_per_sec": round(records / seconds, 1),
    }


def _merge_bench_payload(update: dict) -> None:
    """Merge *update* into benchmarks/results/BENCH_server.json, keeping
    keys the other tests wrote (the server tests co-own the file)."""
    merged: dict = {}
    if BENCH_SERVER_PATH.exists():
        try:
            merged = json.loads(BENCH_SERVER_PATH.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            merged = {}
    merged.update(update)
    text = json.dumps(merged, indent=2, sort_keys=True) + "\n"
    BENCH_SERVER_PATH.write_text(text, encoding="utf-8")


def test_loopback_concurrent_load(server, served_library, serving_corpus, report,
                                  results_dir):
    """8 concurrent clients; parity per mode; BENCH_server.json refreshed."""
    total = len(serving_corpus)
    with CorpusLibrary.open(served_library) as direct:
        expected_all = list(direct.iter_all())
    per_client_indices = [_client_indices(total, seed=100 + slot)
                          for slot in range(CLIENTS)]
    stream_span = min(total, 512)

    # -- single gets ---------------------------------------------------- #
    singles, single_s = _fan_out(
        server.url,
        lambda client, slot: [client.get(i) for i in per_client_indices[slot]],
    )
    for slot in range(CLIENTS):
        assert singles[slot] == [expected_all[i] for i in per_client_indices[slot]]
    single_requests = CLIENTS * REQUESTS_PER_CLIENT

    # -- batched gets ---------------------------------------------------- #
    def batched(client: CorpusClient, slot: int) -> list:
        indices = per_client_indices[slot]
        out: list = []
        for cursor in range(0, len(indices), BATCH_SIZE):
            out.extend(client.get_many(indices[cursor : cursor + BATCH_SIZE]))
        return out

    batches, batch_s = _fan_out(server.url, batched)
    assert batches == singles  # same indices, same bytes, one mode vs the other
    batch_requests = CLIENTS * -(-REQUESTS_PER_CLIENT // BATCH_SIZE)

    # -- range streams ---------------------------------------------------- #
    def streamed(client: CorpusClient, slot: int) -> list:
        start = (slot * stream_span) % max(total - stream_span, 1)
        return [start, client.slice(start, start + stream_span)]

    streams, stream_s = _fan_out(server.url, streamed)
    streamed_records = 0
    for start, records in streams:
        assert records == expected_all[start : start + stream_span]
        streamed_records += len(records)

    # -- server-side accounting ------------------------------------------ #
    with CorpusClient(server.url) as observer:
        stats = observer.stats()
    assert stats["counters"]["single"] >= single_requests
    assert stats["counters"]["batch"] >= batch_requests
    assert stats["counters"]["stream"] >= CLIENTS
    assert stats["cache"]["hits"] + stats["cache"]["misses"] > 0

    payload = {
        "benchmark": "server_loopback_load",
        "scale": os.environ.get("ZSMILES_BENCH_SCALE", "benchmark"),
        "records": total,
        "shards": SHARDS,
        "clients": CLIENTS,
        "pool_size": POOL_SIZE,
        "batch_size": BATCH_SIZE,
        "modes": {
            "single_get": _mode(single_s, single_requests, single_requests),
            "batch_get": _mode(batch_s, batch_requests, single_requests),
            "stream": _mode(stream_s, CLIENTS, streamed_records),
        },
        "cache": stats["cache"],
        "parity": "byte-identical",
    }
    _merge_bench_payload(payload)

    table = ResultTable(
        title=f"HTTP serving front: {CLIENTS} concurrent loopback clients",
        columns=["mode", "requests", "us/request", "records/sec"],
    )
    for name, mode in payload["modes"].items():
        table.add_row(name, mode["requests"], mode["us_per_request"],
                      mode["records_per_sec"])
    table.add_note(
        f"{total} records over {SHARDS} shards; reader pool {POOL_SIZE}; "
        f"batches of {BATCH_SIZE}; streams of {stream_span}."
    )
    report("server_latency", table)


def test_worker_scaling_curve(served_library, serving_corpus, report, results_dir):
    """Requests/sec across ``--workers`` {1, 2, 4} fleets, parity-gated.

    Each worker count gets a fresh :class:`ServerFleet` over the same
    library; the same 8-client single-get fan-out hammers it, every byte is
    checked against a direct library read, and the curve is merged into
    ``BENCH_server.json`` under ``"worker_scaling"``.  Assertions gate on
    parity and on every worker surviving the run — never on speedup, which
    loopback single-gets on a shared CI runner cannot promise.
    """
    total = len(serving_corpus)
    with CorpusLibrary.open(served_library) as direct:
        expected_all = list(direct.iter_all())
    per_client_indices = [_client_indices(total, seed=300 + slot)
                          for slot in range(CLIENTS)]
    requests = CLIENTS * REQUESTS_PER_CLIENT

    curve: dict = {}
    for workers in WORKER_COUNTS:
        with ServerFleet(served_library, workers=workers,
                         readers=POOL_SIZE) as fleet:
            results, seconds = _fan_out(
                fleet.url,
                lambda client, slot: [client.get(i)
                                      for i in per_client_indices[slot]],
            )
            assert fleet.alive_workers() == workers  # nobody died under load
            for slot in range(CLIENTS):
                assert results[slot] == [expected_all[i]
                                         for i in per_client_indices[slot]]
            curve[str(workers)] = _mode(seconds, requests, requests)

    _merge_bench_payload({
        "worker_scaling": {
            "clients": CLIENTS,
            "requests_per_point": requests,
            "scale": os.environ.get("ZSMILES_BENCH_SCALE", "benchmark"),
            "workers": curve,
            "parity": "byte-identical",
        },
    })

    table = ResultTable(
        title=f"Fleet scaling: {CLIENTS} clients vs --workers "
              f"{{{', '.join(str(w) for w in WORKER_COUNTS)}}}",
        columns=["workers", "requests/sec", "us/request"],
    )
    for workers in WORKER_COUNTS:
        entry = curve[str(workers)]
        table.add_row(workers, entry["requests_per_sec"], entry["us_per_request"])
    table.add_note(
        f"{requests} single-gets per point over {total} records; "
        f"reader pool {POOL_SIZE} per worker."
    )
    report("server_worker_scaling", table)


def _zipfish_indices(total: int, seed: int, hot_fraction: float = 0.05,
                     hot_weight: float = 0.8) -> list:
    """A skewed access mix: *hot_weight* of requests hit the hottest
    *hot_fraction* of records (approximating the zipf-shaped access
    patterns real serving tiers see), the rest spread uniformly."""
    rng = random.Random(seed)
    hot_span = max(1, int(total * hot_fraction))
    return [
        rng.randrange(hot_span) if rng.random() < hot_weight
        else rng.randrange(total)
        for _ in range(REQUESTS_PER_CLIENT)
    ]


def test_hot_set_access_mix(server, served_library, serving_corpus, report,
                            results_dir):
    """Non-uniform (zipf-ish) load: 80% of gets hit the hottest 5% of records.

    The skew concentrates reads on a few blocks, so the LRU block cache
    should absorb most of the hot traffic — the measurement records the
    cache hit delta alongside the latency, merged into ``BENCH_server.json``
    under ``"hot_set_mix"``.  Parity- and completion-gated like the uniform
    loopback test; timings are recorded, never asserted.
    """
    total = len(serving_corpus)
    with CorpusLibrary.open(served_library) as direct:
        expected_all = list(direct.iter_all())
    per_client_indices = [_zipfish_indices(total, seed=500 + slot)
                          for slot in range(CLIENTS)]

    with CorpusClient(server.url) as observer:
        cache_before = observer.stats()["cache"]

    results, seconds = _fan_out(
        server.url,
        lambda client, slot: [client.get(i) for i in per_client_indices[slot]],
    )
    for slot in range(CLIENTS):
        assert results[slot] == [expected_all[i] for i in per_client_indices[slot]]
    requests = CLIENTS * REQUESTS_PER_CLIENT

    with CorpusClient(server.url) as observer:
        cache_after = observer.stats()["cache"]
    delta_hits = cache_after["hits"] - cache_before["hits"]
    delta_misses = cache_after["misses"] - cache_before["misses"]
    assert delta_hits + delta_misses > 0, "the mix never touched the cache"

    entry = _mode(seconds, requests, requests)
    entry["hot_fraction"] = 0.05
    entry["hot_weight"] = 0.8
    entry["cache_delta"] = {"hits": delta_hits, "misses": delta_misses}
    _merge_bench_payload({"hot_set_mix": entry})

    table = ResultTable(
        title=f"Hot-set access mix: {CLIENTS} clients, 80% of gets on the "
              "hottest 5% of records",
        columns=["requests", "us/request", "cache hits", "cache misses"],
    )
    table.add_row(requests, entry["us_per_request"], delta_hits, delta_misses)
    table.add_note(
        "Skew concentrates reads on a few blocks; the LRU block cache "
        "absorbs the hot traffic (hit delta above)."
    )
    report("server_hot_set_mix", table)


def _raw_get(url: str, target: str) -> tuple:
    """(status, body bytes) of one bare GET — no trace headers, no encoding."""
    parsed = urlparse(url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30.0)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_telemetry_overhead_parity(served_library, serving_corpus, report,
                                   results_dir):
    """Instrumented vs ``ZSMILES_TELEMETRY=off``: byte-parity, timed, ungated.

    Two single-worker fleets over the same library — one with telemetry on,
    one with the kill switch set (fleet workers re-read the environment at
    spawn) — serve the identical probe workload.  The gate is **parity**:
    every single, batch and stream response body is byte-identical across
    the two modes, proving the instrumentation never touches the wire.  The
    per-request timings of both modes are recorded into
    ``BENCH_server.json`` under ``"telemetry_overhead"`` but never asserted.
    """
    total = len(serving_corpus)
    probe_singles = [0, 1, total // 2, total - 1]
    stream_stop = min(total, 256)
    batch_indices = list(range(0, min(total, 64)))

    def run_mode(enabled: bool) -> dict:
        previous = os.environ.get("ZSMILES_TELEMETRY")
        os.environ["ZSMILES_TELEMETRY"] = "on" if enabled else "off"
        try:
            with ServerFleet(served_library, workers=1,
                             readers=POOL_SIZE) as fleet:
                bodies = {}
                for index in probe_singles:
                    bodies[f"single:{index}"] = _raw_get(
                        fleet.url, f"/records/{index}"
                    )
                bodies["stream"] = _raw_get(
                    fleet.url, f"/records?start=0&stop={stream_stop}"
                )
                with CorpusClient(fleet.url, timeout=30.0) as client:
                    batch = client.get_many(batch_indices)
                    start = time.perf_counter()
                    for i in range(REQUESTS_PER_CLIENT):
                        client.get(i % total)
                    seconds = time.perf_counter() - start
                return {"bodies": bodies, "batch": batch, "seconds": seconds}
        finally:
            if previous is None:
                os.environ.pop("ZSMILES_TELEMETRY", None)
            else:
                os.environ["ZSMILES_TELEMETRY"] = previous

    instrumented = run_mode(True)
    disabled = run_mode(False)

    for key, (status, body) in instrumented["bodies"].items():
        assert status == 200, f"{key} failed instrumented: {status}"
        off_status, off_body = disabled["bodies"][key]
        assert off_status == 200, f"{key} failed with telemetry off: {off_status}"
        assert body == off_body, f"{key}: telemetry changed the response bytes"
    assert instrumented["batch"] == disabled["batch"]

    entry = {
        "scale": os.environ.get("ZSMILES_BENCH_SCALE", "benchmark"),
        "requests": REQUESTS_PER_CLIENT,
        "instrumented": _mode(instrumented["seconds"], REQUESTS_PER_CLIENT,
                              REQUESTS_PER_CLIENT),
        "disabled": _mode(disabled["seconds"], REQUESTS_PER_CLIENT,
                          REQUESTS_PER_CLIENT),
        "parity": "byte-identical",
    }
    _merge_bench_payload({"telemetry_overhead": entry})

    table = ResultTable(
        title="Telemetry overhead: instrumented vs ZSMILES_TELEMETRY=off",
        columns=["mode", "requests", "us/request"],
    )
    table.add_row("instrumented", REQUESTS_PER_CLIENT,
                  entry["instrumented"]["us_per_request"])
    table.add_row("disabled", REQUESTS_PER_CLIENT,
                  entry["disabled"]["us_per_request"])
    table.add_note(
        "Gate is byte-parity on single/batch/stream bodies; timings are "
        "recorded, never asserted."
    )
    report("server_telemetry_overhead", table)


def test_remote_reads_match_local_under_sustained_load(server, served_library):
    """A long alternating workload stays byte-correct on one keep-alive socket."""
    with CorpusLibrary.open(served_library) as direct:
        with CorpusClient(server.url) as client:
            rng = random.Random(7)
            for _ in range(30):
                index = rng.randrange(len(direct))
                assert client.get(index) == direct.get(index)
                batch = [rng.randrange(len(direct)) for _ in range(16)]
                assert client.get_many(batch) == direct.get_many(batch)
