"""``repro.telemetry`` — observing the stack.

Stdlib-only observability for the whole serving stack: a process-wide
metrics registry with Prometheus exposition, ``contextvars``-propagated
trace spans, and structured JSON access logs.  Every tier is already
instrumented — the server (per-route counters and latency/size
histograms), the clients (requests, retries, rotations, stream
progress), the store (block load latency, cache hits/misses/evictions,
block reads and bytes, quarantine events), the engine kernel (lines and
bytes moved, reference fallbacks), the campaign driver (generation
timings, operator accept/reject), and the fault layer (``faults_*``).

Metric naming conventions
=========================
* Every name starts with a tier prefix: ``zsmiles_server_*``,
  ``zsmiles_client_*``, ``zsmiles_store_*``, ``zsmiles_cache_*``,
  ``zsmiles_kernel_*``, ``zsmiles_campaign_*``, ``zsmiles_retry_*`` — and
  ``faults_*`` for the chaos layer (deliberately outside the ``zsmiles``
  namespace: injected faults are not product behaviour).
* Counters end in ``_total``; histograms name their unit
  (``_seconds``, ``_bytes``); gauges name the instant quantity.
* Labels are low-cardinality discriminators only (``route``, ``event``,
  ``io``, ``op``, ``outcome``) — never ids, paths or indices.

Adding an instrument
====================
Register at module scope or first use through the convenience helpers —
registration is idempotent, so every call site can carry the full
definition::

    from ..telemetry import metrics as tm

    _DECODES = tm.counter(
        "zsmiles_store_blocks_decoded_total",
        "Blocks loaded from shards (read, checked, split)",
    )
    _LATENCY = tm.histogram(
        "zsmiles_store_block_decode_seconds",
        "Wall time of one cache-miss block load (read, check, split)",
    )
    ...
    _DECODES.inc()
    _LATENCY.observe(elapsed)

Aggregate hot loops locally and report once per block/batch; the per-call
cost (two dict lookups + one lock) is well under a microsecond, but a
per-byte loop should still not pay it per byte.

The ``ZSMILES_TELEMETRY`` environment variable (``off``/``0``/``false``)
disables every instrument minted by the process-global registry;
responses stay byte-identical either way (the overhead gate in
``benchmarks/test_server_latency.py`` pins this).

Scraping a live server
======================
Every :class:`~repro.server.app.CorpusServer` — and every fleet worker —
exposes the registry at ``GET /metrics`` in the Prometheus text format::

    $ zsmiles serve corpus.library --workers 4 &
    $ curl -s http://127.0.0.1:8765/metrics | grep zsmiles_server_request_seconds
    zsmiles_server_request_seconds_bucket{route="single",le="0.0005"} 412
    zsmiles_server_request_seconds_bucket{route="single",le="0.001"} 498
    ...
    zsmiles_server_request_seconds_count{route="single"} 512

A fleet scrape is already aggregated: whichever worker answers merges
every live sibling's snapshot first (``?scope=local`` opts out), so one
``curl`` sees the whole fleet whichever worker the kernel picks; the same
holds for ``GET /stats``.  ``zsmiles stats URL --watch 2`` renders
the live counter diff from a terminal, and
``GET /stats?trace=recent`` returns the most recent finished spans from
the in-process ring buffer.  Request ids stamped by the clients
(``X-Request-Id``) come back in the access log (``--access-log PATH|-``)
and in every error envelope, so one failing request can be followed from
a client retry chain into the exact worker that refused it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".logs": ["AccessLogger", "open_access_log"],
    ".metrics": [
        "Counter", "DEFAULT_LATENCY_BUCKETS", "DEFAULT_SIZE_BUCKETS", "Gauge",
        "Histogram", "MetricFamily", "MetricsRegistry", "TELEMETRY_ENV_VAR", "counter",
        "gauge", "get_registry", "histogram", "merge_snapshots", "render_prometheus",
        "set_registry", "snapshot_to_json", "telemetry_enabled",
    ],
    ".tracing": [
        "HEADER_REQUEST_ID", "HEADER_TRACE_ID", "Span", "SpanExporter",
        "current_trace_id", "get_exporter", "new_trace_id", "set_exporter",
        "start_span", "trace_context",
    ],
})
