"""The asyncio HTTP serving front: :class:`CorpusServer`.

The server mounts an :class:`~repro.library.AsyncCorpusLibrary` — records
already in its block cache are served on the loop, and its load bound
*is* the backpressure: at most ``readers`` blocking block loads run at
once, no matter how many sockets are open — and speaks a deliberately small
slice of HTTP/1.1 over plain ``asyncio`` streams (stdlib only, no
frameworks):

==========================  ================================================
``GET /healthz``            liveness + record count
``GET /stats``              manifest summary, pool/cache counters, request
                            tallies (the observable the load harness reads)
``GET /records/{i}``        one record, ``text/plain``
``POST /records:batch``     ``{"indices": [...]}`` → one record per line,
                            served through ``get_many``
``GET /records:sample``     ``?n=&seed=`` → JSON of uniform random records
                            (without replacement, seed-deterministic)
``GET /records?start=&stop=``  range stream over chunked transfer encoding,
                            one :meth:`AsyncCorpusLibrary.slice` per chunk
                            so the event loop interleaves requests
==========================  ================================================

Connections are keep-alive by default; every error is the JSON envelope of
:mod:`repro.server.protocol`, typed so clients re-raise the exact
:mod:`repro.errors` class.  :meth:`CorpusServer.shutdown` is graceful: the
listener closes first, in-flight requests run to completion (bounded by a
grace period), then idle keep-alive connections are torn down.

:func:`serve` is the one serve lifecycle — open the library and the access
log, bind, report ready, serve until stopped, drain — and every host runs
it: :class:`BackgroundServer` on a thread with its own event loop (what the
tests, the latency benchmark and the quickstart stand up next to blocking
client code), each :class:`~repro.server.fleet.ServerFleet` worker on its
process's main thread, and :func:`run_server` (``zsmiles serve``) through
one of those two.
"""

from __future__ import annotations

import asyncio
import random
import signal
import threading
import time
import urllib.parse
import zlib
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Union

from ..core.codec import ZSmilesCodec
from ..errors import ProtocolError, ReproError, ServerError
from ..library import DEFAULT_POOL_SIZE, DEFAULT_STREAM_BATCH, AsyncCorpusLibrary
from ..store.reader import DEFAULT_CACHE_BLOCKS, quarantine_rollup
from ..telemetry import metrics as _metrics
from ..telemetry import tracing as _tracing
from ..telemetry.logs import AccessLogger, open_access_log
from . import protocol, wire

PathLike = Union[str, Path]

#: Default bind address (loopback: exposing a corpus is an explicit choice).
DEFAULT_HOST = "127.0.0.1"
#: Default port (0 = ephemeral, reported by ``CorpusServer.port`` once bound).
DEFAULT_PORT = 8765
#: Seconds in-flight requests get to finish during a graceful shutdown.
DEFAULT_GRACE = 10.0


class _ConnectionAbort(Exception):
    """Internal: tear the connection down without writing anything more.

    Raised when a response is already partially on the wire (a chunked
    stream) and failed mid-way — injecting an error envelope would corrupt
    the framing, so the only honest signal left is closing the socket.
    """


class _Request:
    """One parsed HTTP request (the few fields the routes need)."""

    __slots__ = (
        "method", "path", "query", "headers", "body", "keep_alive",
        "request_id", "route", "status", "response_bytes",
    )

    def __init__(self, head: wire.Head):
        target = urllib.parse.urlsplit(head.target or "")
        self.method = head.method
        self.path = target.path
        self.query = dict(urllib.parse.parse_qsl(target.query, keep_blank_values=True))
        self.headers = head.headers
        self.body = head.body
        self.keep_alive = head.keep_alive
        # Adopt the caller's request id (X-Request-Id, falling back to
        # X-Trace-Id) or mint one: every response and log line carries it,
        # so a client-side trace matches server-side.
        self.request_id: str = (
            self.headers.get("x-request-id")
            or self.headers.get("x-trace-id")
            or _tracing.new_trace_id()
        )
        # Telemetry bookkeeping, filled in as the request travels: the
        # route label and what went out.
        self.route = "other"
        self.status = 0
        self.response_bytes = 0


class CorpusServer:
    """Serve one :class:`AsyncCorpusLibrary` over HTTP on an asyncio loop.

    The server borrows the library (it does not close it): callers own both
    lifecycles, which lets one library back a server *and* in-process
    consumers at once.
    """

    def __init__(
        self,
        library: AsyncCorpusLibrary,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        stream_batch: int = DEFAULT_STREAM_BATCH,
        access_log: Optional[AccessLogger] = None,
        worker_id: Optional[int] = None,
    ):
        if stream_batch < 1:
            raise ServerError("stream_batch must be >= 1")
        self.library = library
        self.host = host
        self.port = port
        self.stream_batch = stream_batch
        self.access_log = access_log
        #: Set for a fleet worker, which binds the fleet's shared port with
        #: SO_REUSEPORT.
        self.worker_id = worker_id
        self.registry = _metrics.get_registry()
        #: Per-worker admin port (a second listener on an ephemeral port)
        #: and the fleet-wide list of every sibling's admin port.  Set by
        #: the fleet tier; a lone server leaves both None and serves
        #: local-only /stats and /metrics.
        self.admin_port: Optional[int] = None
        self.peer_admin_ports: Optional[List[int]] = None
        self._admin_server: Optional[asyncio.base_events.Server] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._busy: set = set()
        self._closing = False
        # Startedness is an explicit flag, not a truthiness test on the
        # monotonic stamp: time.monotonic() may legitimately be 0.0 at
        # start (it counts from an unspecified epoch), and a falsy stamp
        # must not make stats() report a never-started server.
        self._started = False
        self._started_at = 0.0
        #: Request tally per route plus error count (single loop: plain ints).
        self.counters: Dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "records_served": 0,
            "deflated": 0,
            "healthz": 0,
            "stats": 0,
            "metrics": 0,
            "single": 0,
            "batch": 0,
            "stream": 0,
            "sample": 0,
        }
        reg = self.registry
        self._metric_requests = reg.counter(
            "zsmiles_server_requests_total",
            "Requests served, by route and response status",
            labels=("route", "status"),
        )
        self._metric_latency = reg.histogram(
            "zsmiles_server_request_seconds",
            "Wall time from parsed request to response written",
            labels=("route",),
        )
        self._metric_response_bytes = reg.histogram(
            "zsmiles_server_response_bytes",
            "Response body bytes, by route",
            labels=("route",),
            buckets=_metrics.DEFAULT_SIZE_BUCKETS,
        )
        self._metric_errors = reg.counter(
            "zsmiles_server_errors_total",
            "Requests answered with an error envelope, by exception type",
            labels=("type",),
        )
        self._metric_records = reg.counter(
            "zsmiles_server_records_served_total",
            "Records delivered across all routes",
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections; resolves ``self.port``."""
        if self._server is not None:
            raise ServerError("server already started")
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            reuse_port=self.worker_id is not None,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._started = True

    async def start_admin(self) -> int:
        """Bind the per-worker admin listener (same routes, own port).

        Fleet workers all share the public port (SO_REUSEPORT), so a
        sibling that wants *this* worker's counters needs a way to address
        it individually — the admin listener is that address.  It serves
        the same handler (so ``/stats?scope=local`` and
        ``/metrics?scope=local`` work), just never via the shared port.
        """
        if self._admin_server is None:
            self._admin_server = await asyncio.start_server(
                self._serve_connection, self.host, 0
            )
            self.admin_port = self._admin_server.sockets[0].getsockname()[1]
        assert self.admin_port is not None
        return self.admin_port

    @property
    def url(self) -> str:
        """The server's base URL (valid once :meth:`start` returned)."""
        return f"http://{self.host}:{self.port}"

    async def shutdown(self, grace: float = DEFAULT_GRACE) -> None:
        """Stop accepting, drain in-flight requests, then drop idle connections.

        A request already being processed (including a chunked range stream)
        gets up to *grace* seconds to complete; keep-alive connections that
        are merely idle between requests are cancelled after the drain.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._admin_server is not None:
            self._admin_server.close()
            await self._admin_server.wait_closed()
        # Drain: only connections actually processing a request get the grace
        # period; handlers re-check _closing after each response and exit
        # instead of waiting for another one, so this is "drain", not
        # "linger".  Idle keep-alive connections are torn down immediately.
        in_flight = {task for task in self._connections if task in self._busy}
        if in_flight:
            await asyncio.wait(in_flight, timeout=grace)
        leftovers = set(self._connections)
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        parser = wire.Parser(requests=True)
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader, parser)
                except (wire.IncompleteMessage, ConnectionError):
                    break  # the peer went away mid-request: nobody to answer
                except ProtocolError as exc:
                    # A framing error leaves the stream unsynchronized; answer
                    # and close rather than misparse the next request.
                    await self._write_error(writer, exc)
                    break
                if request is None:  # clean EOF between requests
                    break
                request.keep_alive = request.keep_alive and not self._closing
                if task is not None:
                    self._busy.add(task)
                started = time.perf_counter()
                try:
                    try:
                        await self._dispatch(request, writer)
                    except (ConnectionError, asyncio.CancelledError):
                        raise
                    except _ConnectionAbort:
                        # A partially-written response cannot be followed by
                        # an envelope; the close below is the error signal.
                        break
                    except ReproError as exc:
                        self.counters["errors"] += 1
                        self._metric_errors.labels(type(exc).__name__).inc()
                        await self._write_error(writer, exc, request)
                    except Exception as exc:  # noqa: BLE001 — envelope, don't kill the loop
                        self.counters["errors"] += 1
                        self._metric_errors.labels(type(exc).__name__).inc()
                        request.keep_alive = False
                        await self._write_error(writer, ServerError(f"internal error: {exc}"), request)
                        break
                finally:
                    if task is not None:
                        self._busy.discard(task)
                    self._finish_request(request, started)
                if not request.keep_alive:
                    break
        except (asyncio.CancelledError, ConnectionError):
            pass  # shutdown tear-down, or the peer vanished mid-write
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, parser: wire.Parser
    ) -> Optional[_Request]:
        """The connection's next request (:mod:`~repro.server.wire` parses
        it); ``None`` once the peer closed cleanly between requests."""
        message = parser.next_message()
        while message is wire.Event.NEED_DATA:
            parser.feed(await reader.read(wire.RECV_BYTES))
            message = parser.next_message()
        return _Request(message) if isinstance(message, wire.Head) else None

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        self.counters["requests"] += 1
        path = request.path
        if path == protocol.ROUTE_HEALTH:
            self.counters["healthz"] += 1
            request.route = "healthz"
            await self._write_json(writer, self._health_payload(), request)
        elif path == protocol.ROUTE_STATS:
            self.counters["stats"] += 1
            request.route = "stats"
            await self._handle_stats(request, writer)
        elif path == protocol.ROUTE_METRICS:
            self.counters["metrics"] += 1
            request.route = "metrics"
            await self._handle_metrics(request, writer)
        elif path == protocol.ROUTE_BATCH:
            request.route = "batch"
            if request.method != "POST":
                raise ProtocolError(f"{path} requires POST, got {request.method}")
            await self._handle_batch(request, writer)
        elif path == protocol.ROUTE_SAMPLE:
            request.route = "sample"
            if request.method != "GET":
                raise ProtocolError(f"{path} requires GET, got {request.method}")
            await self._handle_sample(request, writer)
        elif path.startswith(protocol.RECORD_PREFIX):
            request.route = "single"
            await self._handle_single(request, writer)
        elif path == protocol.ROUTE_RECORDS:
            request.route = "stream"
            await self._handle_stream(request, writer)
        else:
            self.counters["errors"] += 1
            self._metric_errors.labels("NotFound").inc()
            envelope = {
                "error": {
                    "type": "NotFound",
                    "message": f"no route {path}",
                    "status": 404,
                    "request_id": request.request_id,
                }
            }
            body = protocol.encode_json(envelope)
            await self._write_response(writer, 404, body, protocol.CONTENT_TYPE_JSON, request)

    async def _handle_single(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        raw = request.path[len(protocol.RECORD_PREFIX):]
        index = protocol.parse_query_int("record index", raw)
        record = await self.library.get(index)
        self.counters["single"] += 1
        self.counters["records_served"] += 1
        self._metric_records.inc()
        body = record.encode("utf-8")
        await self._write_response(writer, 200, body, protocol.CONTENT_TYPE_TEXT, request)

    async def _handle_batch(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        indices = protocol.parse_batch_request(request.body)
        records = await self.library.get_many(indices)
        self.counters["batch"] += 1
        self.counters["records_served"] += len(records)
        self._metric_records.inc(len(records))
        body, encoding = protocol.negotiate_encoding(
            request.headers, protocol.encode_records_body(records)
        )
        if encoding:
            self.counters["deflated"] += 1
        await self._write_response(
            writer, 200, body, protocol.CONTENT_TYPE_TEXT, request, encoding
        )

    async def _handle_sample(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        """Uniform random records without replacement, seedable.

        The draw is over *indices* (cheap even for huge corpora); records
        come back through ``get_many``.  A fixed ``seed`` fully
        determines the sample, which is what lets remote curation runs be
        reproduced.
        """
        count, seed = protocol.parse_sample_query(request.query, len(self.library))
        rng = random.Random(seed)
        indices = sorted(rng.sample(range(len(self.library)), count))
        records = await self.library.get_many(indices)
        self.counters["sample"] += 1
        self.counters["records_served"] += len(records)
        self._metric_records.inc(len(records))
        payload = protocol.sample_payload(indices, records, len(self.library), seed)
        await self._write_json(writer, payload, request)

    async def _handle_stream(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        """Range streaming over chunked transfer encoding.

        Each chunk is one range read, so a slow consumer only ever holds
        ``stream_batch`` decoded records in the send path and the event loop
        is free between chunks.
        """
        start, stop = protocol.parse_range_query(request.query, len(self.library))
        self.counters["stream"] += 1
        # Streams deflate whenever the request advertises it (no size gate:
        # the range's size is unknown up front and streams are the bulk
        # path).  One zlib stream spans the whole response; every chunk is
        # sync-flushed so records decoded before a mid-stream death are
        # still deliverable, exactly as on an identity stream.
        compressor = None
        if protocol.accepts_deflate(request.headers):
            compressor = zlib.compressobj(protocol.COMPRESS_LEVEL)
            self.counters["deflated"] += 1
        request.status = 200
        writer.write(
            wire.response_head(
                200,
                protocol.CONTENT_TYPE_TEXT,
                encoding=protocol.CONTENT_ENCODING_DEFLATE if compressor is not None else None,
                request_id=request.request_id,
                keep_alive=request.keep_alive,
            )
        )
        # From here the response is on the wire: a failure can no longer be
        # answered with an error envelope (it would be injected into the
        # chunked body and desynchronize the framing), so it aborts the
        # connection instead — the truncated stream is the client's signal
        # (the clients raise ServerConnectionError on it).
        try:
            cursor = start
            while cursor < stop:
                upper = min(cursor + self.stream_batch, stop)
                batch = await self.library.slice(cursor, upper)
                payload = protocol.encode_records_body(batch)
                if compressor is not None:
                    payload = compressor.compress(payload) + compressor.flush(
                        zlib.Z_SYNC_FLUSH
                    )
                if payload:
                    writer.write(wire.encode_chunk(payload))
                    await writer.drain()
                    request.response_bytes += len(payload)
                self.counters["records_served"] += len(batch)
                self._metric_records.inc(len(batch))
                cursor = upper
            if compressor is not None:
                tail = compressor.flush()
                if tail:
                    writer.write(wire.encode_chunk(tail))
            writer.write(wire.encode_chunk(b""))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:
            self.counters["errors"] += 1
            self._metric_errors.labels(type(exc).__name__).inc()
            raise _ConnectionAbort from exc

    # ------------------------------------------------------------------ #
    # Observability routes (stats / metrics, fleet-aware)
    # ------------------------------------------------------------------ #
    def _fleet_scoped(self, request: _Request) -> bool:
        """Whether this request should merge sibling workers' state."""
        return (
            request.query.get("scope") != "local"
            and self.peer_admin_ports is not None
            and len(self.peer_admin_ports) > 1
        )

    async def _handle_stats(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        if self._fleet_scoped(request):
            payload = await self._aggregate_stats()
        else:
            payload = self.stats()
        if request.query.get("trace") == "recent":
            # The most recent finished spans of *this* worker's ring (trace
            # peeks are a debugging aid, not part of the fleet aggregate).
            payload["trace"] = _tracing.get_exporter().recent(limit=32)
        await self._write_json(writer, payload, request)

    async def _handle_metrics(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        if self._fleet_scoped(request):
            snapshots = [self.registry.snapshot()]
            snapshots.extend(
                await self._peer_payloads(
                    f"{protocol.ROUTE_METRICS}?format=json&scope=local"
                )
            )
            snapshot = _metrics.merge_snapshots(snapshots)
        else:
            snapshot = self.registry.snapshot()
        if request.query.get("format") == "json":
            body, content_type = _metrics.snapshot_to_json(snapshot), protocol.CONTENT_TYPE_JSON
        else:
            body = _metrics.render_prometheus(snapshot).encode("utf-8")
            content_type = protocol.CONTENT_TYPE_PROMETHEUS
        await self._write_response(writer, 200, body, content_type, request)

    async def _aggregate_stats(self) -> Dict[str, object]:
        payloads: List[Dict[str, object]] = [self.stats()]
        payloads.extend(
            await self._peer_payloads(f"{protocol.ROUTE_STATS}?scope=local")
        )
        return merge_stats_payloads(payloads)

    async def _peer_payloads(self, target: str) -> List[Dict[str, object]]:
        """Fetch *target* from every live sibling's admin port (skip self).

        A dead sibling (crashed worker) is skipped rather than failing the
        scrape — the aggregate then describes the surviving fleet, which
        is exactly what an operator wants mid-incident.
        """
        ports = [
            port
            for port in (self.peer_admin_ports or [])
            if port != self.admin_port
        ]
        if not ports:
            return []
        results = await asyncio.gather(
            *(self._fetch_peer_json(port, target) for port in ports)
        )
        return [payload for payload in results if payload is not None]

    async def _fetch_peer_json(
        self, port: int, target: str, timeout: float = 2.0
    ) -> Optional[Dict[str, object]]:
        """One minimal HTTP GET against a sibling worker; None on failure."""
        request = wire.encode_request(
            "GET",
            target,
            {"Host": f"{self.host}:{port}", "Accept": protocol.CONTENT_TYPE_JSON, "Connection": "close"},
        )
        parser = wire.Parser()
        peer_writer = None
        try:
            reader, peer_writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, port), timeout
            )
            peer_writer.write(request)
            message = parser.next_message()
            while message is wire.Event.NEED_DATA:
                parser.feed(await asyncio.wait_for(reader.read(wire.RECV_BYTES), timeout))
                message = parser.next_message()
            if not isinstance(message, wire.Head) or message.status != 200:
                return None
            payload = protocol.decode_json(message.body)
            return payload if isinstance(payload, dict) else None
        except (OSError, ReproError, asyncio.TimeoutError):
            return None
        finally:
            if peer_writer is not None:
                peer_writer.close()
                try:
                    await peer_writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    # ------------------------------------------------------------------ #
    # Payloads
    # ------------------------------------------------------------------ #
    def _health_payload(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "records": len(self.library),
        }

    def stats(self) -> Dict[str, object]:
        """The ``/stats`` payload (also handy for in-process inspection)."""
        manifest = self.library.manifest
        identity = self.library.dictionary_identity()
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "dictionary": identity.to_json_obj() if identity is not None else None,
            "records": len(self.library),
            "shards": manifest.shard_count,
            "pool_size": self.library.pool_size,
            # The key is always present; 0.0 before start(), never omitted.
            "uptime_seconds": round(time.monotonic() - self._started_at, 3)
            if self._started
            else 0.0,
            "cache": self.library.cache_stats(),
            "counters": dict(self.counters),
            # Degraded-read visibility: which blocks this replica has
            # quarantined after integrity failures, and how often reads
            # hit them (each hit was served by failover or failed typed).
            "quarantine": self.library.quarantine_stats(),
            "manifest": {
                "total_records": manifest.total_records,
                "shard_count": manifest.shard_count,
                "metadata": manifest.metadata,
            },
        }

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #
    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        request: Optional[_Request] = None,
        encoding: Optional[str] = None,
    ) -> None:
        """One whole response; the connection stays open only while
        *request* keeps it alive (no request: an answer before closing)."""
        request_id, keep_alive = None, False
        if request is not None:
            request_id, keep_alive = request.request_id, request.keep_alive
            request.status = status
            request.response_bytes += len(body)
        head = wire.response_head(status, content_type, len(body), encoding, request_id, keep_alive)
        writer.write(head + body)
        await writer.drain()

    async def _write_json(
        self, writer: asyncio.StreamWriter, payload: Dict[str, object], request: _Request
    ) -> None:
        body = protocol.encode_json(payload)
        await self._write_response(writer, 200, body, protocol.CONTENT_TYPE_JSON, request)

    async def _write_error(
        self, writer: asyncio.StreamWriter, exc: BaseException, request: Optional[_Request] = None
    ) -> None:
        status, body = protocol.encode_error(exc, request.request_id if request else None)
        try:
            await self._write_response(writer, status, body, protocol.CONTENT_TYPE_JSON, request)
        except ConnectionError:
            pass  # the peer is gone; nothing to tell them

    def _finish_request(self, request: _Request, started: float) -> None:
        """Record one finished request: metrics always, access log if on."""
        elapsed = time.perf_counter() - started
        route = request.route
        self._metric_requests.labels(route, request.status).inc()
        self._metric_latency.labels(route).observe(elapsed)
        if request.response_bytes:
            self._metric_response_bytes.labels(route).observe(request.response_bytes)
        if self.registry.enabled:
            # One finished span per request feeds ``/stats?trace=recent``:
            # a failover chain shows up as several spans sharing a trace id.
            span = _tracing.Span(
                f"server.{route}", request.request_id, {"status": request.status}
            )
            span.duration_ms = round(elapsed * 1000.0, 3)
            _tracing.get_exporter().export(span)
        if self.access_log is not None:
            self.access_log.log(
                request_id=request.request_id,
                method=request.method,
                path=request.path,
                route=route,
                status=request.status,
                bytes=request.response_bytes,
                duration_ms=round(elapsed * 1000.0, 3),
            )


# --------------------------------------------------------------------------- #
# Fleet stats aggregation
# --------------------------------------------------------------------------- #
def merge_stats_payloads(
    payloads: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """Merge per-worker ``/stats`` payloads into one fleet-wide payload.

    Counters sum, the cache counters sum (with the hit rate recomputed
    over the summed counters), quarantine shard maps union (a block two
    workers both quarantined counts once), pool sizes sum (the fleet's
    total decode concurrency) and uptime is the oldest worker's.  Identity
    fields (protocol, dictionary, records, manifest) come from the first
    payload — every worker serves the same corpus.
    """
    if not payloads:
        raise ServerError("merge_stats_payloads needs at least one payload")
    merged = dict(payloads[0])
    counters: Dict[str, int] = {}
    for payload in payloads:
        for key, value in payload.get("counters", {}).items():  # type: ignore[union-attr]
            counters[key] = counters.get(key, 0) + int(value)
    merged["counters"] = counters
    cache: Dict[str, object] = {}
    for payload in payloads:
        for key, value in payload.get("cache", {}).items():  # type: ignore[union-attr]
            if key == "hit_rate":
                continue
            cache[key] = cache.get(key, 0) + int(value)
    lookups = int(cache.get("hits", 0)) + int(cache.get("misses", 0))
    cache["hit_rate"] = round(int(cache.get("hits", 0)) / lookups, 6) if lookups else 0.0
    merged["cache"] = cache
    quarantines: List[dict] = [payload.get("quarantine", {}) for payload in payloads]  # type: ignore[misc]
    merged["quarantine"] = quarantine_rollup(
        ((str(name), blocks) for q in quarantines for name, blocks in q.get("shards", {}).items()),
        sum(int(q.get("quarantine_hits", 0)) for q in quarantines),
    )
    merged["pool_size"] = sum(int(p.get("pool_size", 0)) for p in payloads)
    merged["uptime_seconds"] = max(
        float(p.get("uptime_seconds", 0.0)) for p in payloads
    )
    merged["workers"] = len(payloads)
    merged["aggregated"] = True
    return merged


# --------------------------------------------------------------------------- #
# The serve lifecycle and its hosts
# --------------------------------------------------------------------------- #
async def serve(
    source: PathLike,
    started: Callable[[CorpusServer], Awaitable[None]],
    stop: asyncio.Event,
    *,
    codec: Optional[ZSmilesCodec] = None,
    host: str = DEFAULT_HOST,
    port: int = 0,
    readers: int = DEFAULT_POOL_SIZE,
    cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    stream_batch: int = DEFAULT_STREAM_BATCH,
    access_log: Optional[PathLike] = None,
    worker_id: Optional[int] = None,
) -> None:
    """Serve *source* from start-up to drain: the one serve lifecycle.

    Opens the :class:`AsyncCorpusLibrary` and the access log, binds a
    :class:`CorpusServer`, awaits ``started(server)``, serves until *stop*
    is set, then drains in-flight requests.  A *worker_id* marks a fleet
    worker: its server binds *port* with ``SO_REUSEPORT`` and also binds
    the admin listener, and its access-log lines carry the id.  Everything
    opened here is closed on every path, so a start-up failure propagates
    with nothing left open.
    """
    library = AsyncCorpusLibrary.open(
        source, codec=codec, pool_size=readers, cache_blocks=cache_blocks
    )
    log = None
    try:
        log = open_access_log(access_log, worker_id=worker_id)
        server = CorpusServer(
            library,
            host,
            port,
            stream_batch=stream_batch,
            access_log=log,
            worker_id=worker_id,
        )
        try:
            await server.start()
            if worker_id is not None:
                await server.start_admin()
            await started(server)
            await stop.wait()
        finally:
            await server.shutdown()
    finally:
        library.close()
        if log is not None:
            log.close()


class BackgroundServer:
    """:func:`serve` on its own thread + event loop.

    The bridge between the async server and blocking consumers: tests, the
    latency benchmark, the quickstart and single-worker ``zsmiles serve``.

    Use as a context manager::

        with BackgroundServer("corpus.library", readers=8) as server:
            client = CorpusClient(server.url)
            ...
    """

    def __init__(
        self,
        source: PathLike,
        codec: Optional[ZSmilesCodec] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
        readers: int = DEFAULT_POOL_SIZE,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        stream_batch: int = DEFAULT_STREAM_BATCH,
        access_log: Optional[PathLike] = None,
    ):
        self._source = source
        self._options = dict(
            codec=codec,
            host=host,
            port=port,
            readers=readers,
            cache_blocks=cache_blocks,
            stream_batch=stream_batch,
            access_log=access_log,
        )
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self._stop_lock = threading.Lock()
        self.server: Optional[CorpusServer] = None

    # -- thread body ---------------------------------------------------- #
    async def _main(self) -> None:
        stop = asyncio.Event()

        async def started(server: CorpusServer) -> None:
            self.server = server
            self._loop, self._stop_event = asyncio.get_running_loop(), stop
            self._ready.set()

        try:
            await serve(self._source, started, stop, **self._options)
        except BaseException as exc:
            if self._ready.is_set():
                raise
            # Whatever ends the thread before it is ready must release
            # start(), which re-raises it as a ServerError.
            self._startup_error = exc
            self._ready.set()

    # -- public surface -------------------------------------------------- #
    def start(self) -> "BackgroundServer":
        if self._thread is not None or self._ready.is_set():
            # One instance, one lifecycle: _ready/_startup_error/server all
            # belong to the first run, so a restart would report stale state
            # (the old port, a dead URL).  Create a new instance instead.
            raise ServerError(
                "BackgroundServer cannot be restarted; create a new instance"
            )
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="zsmiles-corpus-server",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise ServerError(
                f"corpus server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    @property
    def url(self) -> str:
        if self.server is None:
            raise ServerError("BackgroundServer is not running")
        return self.server.url

    def stop(self) -> None:
        """Graceful shutdown (idempotent): drain, then join the thread.

        Safe against the startup race: a ``stop()`` issued while the server
        thread is still binding waits for startup to resolve (success or
        error) before signalling, so ``_loop``/``_stop_event`` are never
        half-initialized and the thread cannot leak.  Concurrent and
        repeated ``stop()`` calls are no-ops after the first.
        """
        with self._stop_lock:
            thread = self._thread
            if thread is None:
                return
            # Wait for the thread body to either publish _loop/_stop_event
            # or record a startup error — signalling before that point
            # would be lost and leave the thread parked forever.
            self._ready.wait()
            if self._loop is not None and self._stop_event is not None:
                try:
                    self._loop.call_soon_threadsafe(self._stop_event.set)
                except RuntimeError:
                    pass  # loop already closed
            thread.join()
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def run_server(
    source: PathLike,
    workers: int = 1,
    codec: Optional[ZSmilesCodec] = None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    readers: int = DEFAULT_POOL_SIZE,
    cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    access_log: Optional[str] = None,
) -> int:
    """Serve *source* in the foreground until SIGINT/SIGTERM (``zsmiles serve``).

    One worker runs in a :class:`BackgroundServer`, more in a
    :class:`~repro.server.fleet.ServerFleet` behind one URL.  Prints the
    bound URL once serving (flushed, machine-readable first line:
    ``serving <records> records at <url> (...)``, with ``workers=N`` for a
    fleet), then on a signal drains in-flight requests and returns 0.
    """
    from .fleet import ServerFleet  # the fleet module imports this one

    options = dict(
        codec=codec,
        host=host,
        port=port,
        readers=readers,
        cache_blocks=cache_blocks,
        access_log=access_log,
    )
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, lambda *_: stop.set())
        except (ValueError, OSError):  # pragma: no cover — exotic hosts
            pass
    try:
        if workers == 1:
            server = BackgroundServer(source, **options).start()
            records, shape = len(server.server.library), ""
        else:
            server = ServerFleet(source, workers=workers, **options).start()
            records, shape = server.records, f"workers={workers}, "
        try:
            print(
                f"serving {records} records at {server.url} ({shape}pool={readers}, "
                f"cache_blocks={cache_blocks}) — Ctrl-C to stop",
                flush=True,
            )
            stop.wait()
            print("shutting down (draining in-flight requests)...", flush=True)
        finally:
            server.stop()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
