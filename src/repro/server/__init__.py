"""The network serving front: HTTP over the corpus library.

``repro.server`` turns a packed corpus — any layout
:meth:`~repro.library.CorpusLibrary.open` accepts — into a service, the
fourth tier of the serving ladder documented in :mod:`repro.library`
(flat → ``.zss`` → sharded library → **HTTP**).  HTTP/1.1 is spoken in one
place, a sans-IO core, under thin I/O drivers:

* :mod:`repro.server.wire` — the core: bytes in, events out, no I/O.  The
  one incremental HTTP/1.1 parser (requests and responses) and head
  encoder; every client endpoint's request and answer decoding; the range
  stream record decoder; and the failover decisions (rotation, retry
  classification, stream resume) as a pure state machine.
* :mod:`repro.server.protocol` — the wire schema: routes, content types,
  body limits, deflate negotiation, strict integers, and the JSON error
  envelope that maps :mod:`repro.errors` to HTTP statuses *and back*.
* :class:`CorpusServer` (:mod:`repro.server.app`) — the asyncio server
  driver: it feeds the core's parser from ``asyncio`` streams and writes
  the core's heads, mounting an :class:`~repro.library.AsyncCorpusLibrary`
  whose bounded reader pool is the backpressure.  Endpoints: ``/healthz``,
  ``/stats``, ``/metrics``, ``/records/{i}``, ``/records:batch``,
  ``/records:sample`` and the chunked ``/records?start=&stop=`` stream.
* :class:`CorpusClient` / :class:`FailoverCorpusClient`
  (:mod:`repro.server.client`) — the blocking-socket driver, mirroring the
  :class:`~repro.store.protocol.RecordReader` protocol, so
  :func:`repro.store.open_reader` serves ``http://`` URLs (one, or a
  comma-separated replica list) to existing consumers (screening, dataset
  loaders, the CLI) with no call-site change.
* :class:`AsyncCorpusClient` / :class:`AsyncFailoverCorpusClient`
  (:mod:`repro.server.async_client`) — the asyncio-streams driver of the
  same core, for event-loop consumers; it behaves exactly as the blocking
  clients do.
* :func:`~repro.server.app.serve` — the one serve lifecycle (open the
  library and access log, bind, report ready, serve until stopped, drain
  in-flight requests), which every host below runs.
* :class:`BackgroundServer` — a server on its own thread and event loop,
  next to blocking code (tests, benchmarks, the quickstart).
* :class:`ServerFleet` (:mod:`repro.server.fleet`) — multi-process
  scale-out: N worker processes over the same library behind one URL,
  via ``SO_REUSEPORT`` kernel load-balancing where available and a parent
  round-robin TCP proxy everywhere else.  A SIGKILLed worker drops out of
  rotation; survivors keep serving.
* :func:`run_server` — the foreground entry point (``zsmiles serve``): a
  :class:`BackgroundServer` for one worker, a :class:`ServerFleet` for
  ``--workers N``, until SIGINT/SIGTERM.
* :class:`RetryPolicy` (:mod:`repro.server.retry`) — the one retry
  discipline every client and the campaign driver share: attempts,
  exponential backoff with jitter, optional total deadline.  Pass it as
  ``retry=`` to any client (or :func:`repro.store.open_reader`) to tune
  how hard transient failures are ridden out.

The failover clients round-robin over replica URLs, fail over on retryable
outcomes (connection loss, HTTP 503, block corruption — see
:func:`repro.server.protocol.is_retryable`), propagate fatal typed errors
immediately, and resume range streams at the first undelivered record.

Observability (see :mod:`repro.telemetry`): every server and fleet worker
exposes ``GET /metrics`` (Prometheus text; a fleet scrape is aggregated
across live workers, ``?scope=local`` opts out), clients stamp
``X-Request-Id``/``X-Trace-Id`` headers the server adopts, echoes and logs
(``--access-log``), and :func:`merge_stats_payloads` is the fleet's
``/stats`` roll-up.

Transport: ``/records:batch`` and range-stream responses negotiate zlib
``Content-Encoding: deflate`` (clients advertise it by default; identity
bodies stay byte-identical to the pre-compression wire).

Standing a service up::

    zsmiles pack corpus.smi -d shared.dct --shards 8
    zsmiles serve corpus.library --port 8765 --readers 8 --workers 4

Consuming it::

    with CorpusClient("http://127.0.0.1:8765") as client:
        client.get(123), client.get_many(batch)
        for record in client.iter_range(0, 10_000):
            ...
    # replicas behind one client (comma-spelling works in CLIs/envs too):
    with FailoverCorpusClient(["http://a:8765", "http://b:8765"]) as client:
        client.get_many(batch)   # fails over on refused/503, resumes streams
    # or, transparently:
    reader = open_reader("http://127.0.0.1:8765")
    reader = open_reader("http://a:8765,http://b:8765")  # failover reader
"""

from .app import (
    DEFAULT_GRACE,
    DEFAULT_HOST,
    DEFAULT_PORT,
    BackgroundServer,
    CorpusServer,
    merge_stats_payloads,
    run_server,
)
from .async_client import AsyncCorpusClient, AsyncFailoverCorpusClient
from .client import DEFAULT_TIMEOUT, CorpusClient, FailoverCorpusClient
from .fleet import ServerFleet
from .protocol import PROTOCOL_VERSION, is_retryable, is_url, split_replica_urls
from .retry import RetryPolicy, RetryState

__all__ = [
    "AsyncCorpusClient",
    "AsyncFailoverCorpusClient",
    "BackgroundServer",
    "CorpusClient",
    "CorpusServer",
    "DEFAULT_GRACE",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_TIMEOUT",
    "FailoverCorpusClient",
    "PROTOCOL_VERSION",
    "RetryPolicy",
    "RetryState",
    "ServerFleet",
    "is_retryable",
    "is_url",
    "merge_stats_payloads",
    "run_server",
    "split_replica_urls",
]
