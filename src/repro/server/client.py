"""The blocking corpus clients: :class:`CorpusClient` and its failover twin.

A blocking-socket driver over the sans-IO core in :mod:`repro.server.wire`:
this module owns only the I/O — connecting (``TCP_NODELAY``, ``https``
through :mod:`ssl`), sending, receiving, sleeping between retries — while
the core builds every request, parses every response and makes every retry
and failover decision, the same code the asyncio twin
(:mod:`repro.server.async_client`) runs.

:class:`CorpusClient` mirrors the :class:`~repro.store.protocol.RecordReader`
surface — ``len()``, ``get``, ``get_many``, ``slice``, ``iter_all`` and
context management — so every consumer (the screening pipeline,
``datasets.io``, the CLI) reads from a URL exactly the way it reads from a
file; :func:`repro.store.open_reader` dispatches ``http://`` /
``https://`` sources here.

Errors are typed end to end: the server's JSON envelope becomes the
originating :mod:`repro.errors` class (an out-of-range index raises
:class:`~repro.errors.RandomAccessError`, a malformed request
:class:`~repro.errors.ProtocolError`), and transport failures — connection
refused, the server dying mid-stream — raise
:class:`~repro.errors.ServerConnectionError`.

One connection is kept alive across calls.  The keep-alive race (the server
closed an idle connection between our requests) is handled *before*
sending: the pooled socket is probed for a pending EOF and reopened if
stale.  Reconnect retries are therefore restricted to the connect/send
phase — once any response byte could have been received, a transport
failure raises instead of silently resending (a duplicate request).

Thread safety mirrors the local readers: unit requests (``get`` /
``get_many`` / ``stats``) serialize over the shared keep-alive connection
behind a lock, and every :meth:`CorpusClient.iter_range` stream runs on its
own dedicated connection, so a long (or abandoned) stream never blocks or
desynchronizes unit requests from other threads.

:class:`FailoverCorpusClient` wraps several replicas of the same corpus
behind the same surface (:class:`repro.server.wire.Failover` decides):
calls round-robin across the URLs and fail over on *retryable* outcomes
(connection loss, HTTP 503, block corruption) while fatal typed errors
(404, 400) propagate immediately; range streams resume on the next replica
at the first undelivered record.
"""

from __future__ import annotations

import select
import socket
import ssl
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

from ..errors import ReproError
from ..telemetry import tracing as _tracing
from . import wire
from .retry import RetryPolicy
from .wire import DEFAULT_TIMEOUT

__all__ = ["DEFAULT_TIMEOUT", "CorpusClient", "FailoverCorpusClient"]

_T = TypeVar("_T")


class _Endpoints:
    """The surface both blocking clients share; each runs the
    :class:`~repro.server.wire.ClientCore` endpoints its own way (``_run``)
    and streams its own way (``_stream``)."""

    def healthz(self) -> Dict[str, object]:
        """The server's liveness payload."""
        return self._run(wire.ClientCore.healthz)

    def stats(self, trace: bool = False) -> Dict[str, object]:
        """The server's ``/stats`` payload (manifest, cache and counters);
        ``trace=True`` adds the server's recent spans."""
        return self._run(wire.ClientCore.stats, trace)

    def metrics(self) -> str:
        """The server's ``GET /metrics`` Prometheus text exposition.

        Against a fleet, whichever worker answers merges every live
        sibling's registry first, so one call sees the whole fleet.
        """
        return self._run(wire.ClientCore.metrics)

    def metrics_snapshot(self) -> Dict[str, object]:
        """The same data as :meth:`metrics`, as the JSON snapshot shape."""
        return self._run(wire.ClientCore.metrics_snapshot)

    def get(self, index: int) -> str:
        """The record at *index* (one ``GET /records/{i}``)."""
        return self._run(wire.ClientCore.get, index)

    def __getitem__(self, index: int) -> str:
        return self.get(index)

    def get_many(self, indices: Sequence[int]) -> List[str]:
        """Fetch several records in one ``POST /records:batch`` round trip."""
        indices = list(indices)
        return self._run(wire.ClientCore.get_many, indices) if indices else []

    def sample(self, n: int, seed: Optional[int] = None) -> Tuple[List[int], List[str]]:
        """Uniform random records without replacement (``GET /records:sample``).

        Returns ``(indices, records)`` in ascending index order; a fixed
        *seed* makes the draw deterministic across calls, processes and
        replicas.
        """
        return self._run(wire.ClientCore.sample, n, seed)

    def iter_range(self, start: int = 0, stop: Optional[int] = None) -> Iterator[str]:
        """Stream records ``start`` … ``stop`` (exclusive) lazily.

        One ``GET /records?start=&stop=`` on a *dedicated* connection;
        records are yielded as they arrive, so a range larger than memory
        streams in constant space.  If the server dies or stalls
        mid-stream, :class:`~repro.errors.ServerConnectionError` is raised
        at the point of interruption with ``delivered`` set to the records
        already yielded (the failover client resumes there instead).
        """
        return self._stream(start, stop)

    def slice(self, start: int, stop: int) -> List[str]:
        """Records ``start`` (inclusive) to ``stop`` (exclusive, clamped)."""
        return list(self.iter_range(start, stop))

    def iter_all(self) -> Iterator[str]:
        """Stream every record in order."""
        return self.iter_range(0, None)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class CorpusClient(_Endpoints):
    """Blocking record access to a :class:`~repro.server.app.CorpusServer`.

    Parameters
    ----------
    base_url:
        The server root, e.g. ``http://127.0.0.1:8765``.  A path prefix is
        honoured (``http://host:port/corpus`` requests ``/corpus/records/…``).
    timeout:
        Socket timeout per operation, in seconds.
    compress:
        Advertise ``Accept-Encoding: deflate`` so the server may compress
        batch and stream responses (inflated transparently).
    retry:
        The :class:`~repro.server.retry.RetryPolicy` governing the
        connect/send phase (the only phase where resending is safe); the
        default is one transparent retry with a short backoff.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = DEFAULT_TIMEOUT,
        compress: bool = True,
        retry: Optional[RetryPolicy] = None,
    ):
        self._core = wire.ClientCore(base_url, timeout, compress, retry)
        self.base_url = self._core.base_url
        self.timeout = timeout
        self.compress = compress
        self.retry = self._core.retry
        #: The kept-alive socket (None before the first call and after a drop).
        self._conn: Optional[socket.socket] = None
        # Serializes request/response cycles on the shared connection.
        self._lock = threading.RLock()

    def _open(self) -> socket.socket:
        core = self._core
        sock = socket.create_connection((core.host, core.port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if core.https:
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=core.host)
        except BaseException:
            sock.close()
            raise
        return sock

    def _connection(self) -> socket.socket:
        if self._conn is not None:
            # Keep-alive staleness probe: a server that closed this idle
            # connection has already sent its FIN, so the socket selects
            # readable with no response outstanding.  Reopening *before*
            # sending keeps that race inside the retry-safe connect phase.
            try:
                stale = bool(select.select([self._conn], [], [], 0)[0])
            except (OSError, ValueError):
                stale = True
            if stale:
                self._drop_connection()
        if self._conn is None:
            self._conn = self._open()
        return self._conn

    def _drop_connection(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _exchange(self, exchange: wire.Exchange) -> wire.Exchange:
        """Run one unit round trip on the kept-alive connection.

        The lock spans the whole cycle: another thread starting a request
        before this response is fully read would read the wrong response.
        """
        with self._lock:
            while True:
                try:
                    sock = self._connection()
                    sock.sendall(exchange.request)
                    break
                except OSError as exc:
                    self._drop_connection()
                    time.sleep(exchange.retry_delay(exc))
            try:
                while not exchange.receive(sock.recv(wire.RECV_BYTES)):
                    pass
            except OSError as exc:
                self._drop_connection()
                raise exchange.failure(exc) from exc
            except ReproError:
                self._drop_connection()
                raise
            if not exchange.reusable:
                self._drop_connection()
        return exchange

    def _call(
        self,
        method: str,
        target: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """One raw request: ``(status, inflated body)``, or the typed error."""
        exchange = self._exchange(wire.Exchange(self._core, method, target, body=body, headers=headers))
        return exchange.head.status, exchange.payload()  # type: ignore[union-attr,return-value]

    def _run(self, endpoint: Callable[..., wire.Exchange], *args):
        return self._exchange(endpoint(self._core, *args)).result()

    def _stream(self, start: int, stop: Optional[int], trace_id: Optional[str] = None) -> Iterator[str]:
        stream = self._core.stream(start, stop, trace_id)
        sock = None
        try:
            sock = self._open()
            sock.sendall(stream.request)
            while not stream.done:
                yield from stream.receive(sock.recv(wire.RECV_BYTES))
        except OSError as exc:
            raise stream.failure(exc) from exc
        finally:
            stream.close()
            if sock is not None:
                sock.close()

    def __len__(self) -> int:
        """Record count, fetched from ``/stats`` once and cached."""
        if self._core.total is None:
            self.stats()
        return self._core.length()

    def close(self) -> None:
        """Close the kept-alive connection (idempotent; calls reopen it)."""
        self._drop_connection()


class FailoverCorpusClient(_Endpoints):
    """Replica-aware reads over several servers of the *same* corpus.

    Presents the :class:`CorpusClient` surface; each call walks the
    replicas as :class:`repro.server.wire.Operation` decides — rotating
    round-robin, failover on retryable outcomes (connection loss, HTTP 503,
    block corruption), immediate propagation of fatal typed errors (404,
    400), and a typed "all N replicas failed" exhaustion error.  Range
    streams resume on the next replica at the first *undelivered* record,
    so a SIGKILLed replica costs latency, never records, and never
    duplicates.

    Parameters
    ----------
    urls:
        The replica URLs — a sequence, or one comma-separated string
        (``"http://a:8765,http://b:8765"``, the CLI-friendly spelling).
    timeout, compress:
        Forwarded to each per-replica :class:`CorpusClient`.
    retry:
        The :class:`~repro.server.retry.RetryPolicy` governing full
        *rotations*: when every replica fails one pass, it decides whether
        (and after what backoff) to sweep the fleet again.  Per-replica
        connect retries stay at the per-client default.
    """

    def __init__(
        self,
        urls: Union[str, Sequence[str]],
        timeout: float = DEFAULT_TIMEOUT,
        compress: bool = True,
        retry: Optional[RetryPolicy] = None,
    ):
        self._failover = wire.Failover(urls, retry)
        self.urls = self._failover.urls
        self.retry = self._failover.retry
        self._clients = [CorpusClient(url, timeout=timeout, compress=compress) for url in self.urls]

    def _fan(self, op: Callable[[CorpusClient], _T]) -> _T:
        """Run *op* against replicas in rotation until one answers."""
        attempt = self._failover.operation()
        with _tracing.trace_context(attempt.trace_id):
            while True:
                index, delay = attempt.next()
                if delay:
                    time.sleep(delay)
                try:
                    return op(self._clients[index])
                except ReproError as exc:
                    attempt.failed(exc)

    def _run(self, endpoint: Callable[..., wire.Exchange], *args):
        return self._fan(lambda client: client._run(endpoint, *args))

    def _stream(self, start: int, stop: Optional[int]) -> Iterator[str]:
        attempt = self._failover.operation(start, stop)
        while True:
            index, delay = attempt.next()
            if delay:
                time.sleep(delay)
            try:
                for record in self._clients[index]._stream(attempt.resume_at, stop, attempt.trace_id):
                    attempt.advance()
                    yield record
                return
            except ReproError as exc:
                attempt.failed(exc)

    def __len__(self) -> int:
        return self._fan(len)

    def close(self) -> None:
        """Close every replica's kept-alive connection (idempotent)."""
        for client in self._clients:
            client.close()
