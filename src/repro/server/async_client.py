"""Asyncio corpus clients: :class:`AsyncCorpusClient` and its failover twin.

An asyncio-streams driver over the sans-IO core in :mod:`repro.server.wire`,
the same core the blocking :class:`~repro.server.client.CorpusClient` runs:
requests, response parsing, endpoint decoding, stream record decoding and
every retry and failover decision are shared, and this module only moves
bytes (``asyncio.open_connection``, reads, writes, sleeps), so async
consumers read a corpus without a thread pool and behave exactly like the
blocking clients.

Surface notes versus the blocking client:

* ``__len__`` cannot await, so the record count is ``await client.total()``.
* :meth:`AsyncCorpusClient.iter_range` is an *async* iterator with the same
  delivered-before-death guarantee.
* Only plain ``http`` is spoken (no TLS driver).

Unit requests hold an ``asyncio.Lock`` for their request/response cycle on
the shared connection; streams open a dedicated connection, mirroring the
blocking client's thread-safety contract.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from ..errors import ReproError, ServerError
from ..telemetry import tracing as _tracing
from . import wire
from .retry import RetryPolicy
from .wire import DEFAULT_TIMEOUT

_T = TypeVar("_T")


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


class _AsyncEndpoints:
    """The surface both asyncio clients share; each runs the
    :class:`~repro.server.wire.ClientCore` endpoints its own way (``_run``)
    and streams its own way (``_stream``)."""

    async def healthz(self) -> Dict[str, object]:
        """The server's liveness payload."""
        return await self._run(wire.ClientCore.healthz)

    async def stats(self, trace: bool = False) -> Dict[str, object]:
        """The server's ``/stats`` payload (``trace=True`` adds recent spans)."""
        return await self._run(wire.ClientCore.stats, trace)

    async def metrics(self) -> str:
        """The server's ``GET /metrics`` Prometheus text exposition."""
        return await self._run(wire.ClientCore.metrics)

    async def metrics_snapshot(self) -> Dict[str, object]:
        """The same data as :meth:`metrics`, as the JSON snapshot shape."""
        return await self._run(wire.ClientCore.metrics_snapshot)

    async def get(self, index: int) -> str:
        """The record at *index*."""
        return await self._run(wire.ClientCore.get, index)

    async def get_many(self, indices: Sequence[int]) -> List[str]:
        """Several records in one batch round trip."""
        indices = list(indices)
        return await self._run(wire.ClientCore.get_many, indices) if indices else []

    async def sample(self, n: int, seed: Optional[int] = None) -> Tuple[List[int], List[str]]:
        """Seed-deterministic uniform sample without replacement."""
        return await self._run(wire.ClientCore.sample, n, seed)

    def iter_range(self, start: int = 0, stop: Optional[int] = None) -> AsyncIterator[str]:
        """Stream records ``start`` … ``stop`` on a dedicated connection.

        Everything the server delivered before dying is yielded before the
        :class:`~repro.errors.ServerConnectionError` (``delivered`` set).
        """
        return self._stream(start, stop)

    async def slice(self, start: int, stop: int) -> List[str]:
        """Records ``start`` (inclusive) to ``stop`` (exclusive, clamped)."""
        return [record async for record in self.iter_range(start, stop)]

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class AsyncCorpusClient(_AsyncEndpoints):
    """Asyncio record access to a :class:`~repro.server.app.CorpusServer`.

    Parameters mirror :class:`~repro.server.client.CorpusClient`; use as an
    async context manager::

        async with AsyncCorpusClient(url) as client:
            records = await client.get_many([0, 5, 7])
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = DEFAULT_TIMEOUT,
        compress: bool = True,
        retry: Optional[RetryPolicy] = None,
    ):
        self._core = wire.ClientCore(base_url, timeout, compress, retry)
        if self._core.https:
            raise ServerError(f"AsyncCorpusClient speaks plain http, got 'https' in {base_url!r}")
        self.base_url = self._core.base_url
        self.timeout = timeout
        self.compress = compress
        self.retry = self._core.retry
        self._conn: Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = None
        self._lock = asyncio.Lock()

    async def _io(self, step: Awaitable[_T]) -> _T:
        """One transport step under the timeout (expiry is a TimeoutError)."""
        try:
            return await asyncio.wait_for(step, self.timeout)
        except asyncio.TimeoutError as exc:
            raise TimeoutError(f"timed out after {self.timeout}s") from exc

    async def _open(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await self._io(asyncio.open_connection(self._core.host, self._core.port))

    async def _drop_connection(self) -> None:
        if self._conn is not None:
            writer = self._conn[1]
            self._conn = None
            await _close(writer)

    async def _exchange(self, exchange: wire.Exchange) -> wire.Exchange:
        """Run one unit round trip on the kept-alive connection."""
        async with self._lock:
            while True:
                try:
                    if self._conn is not None and self._conn[0].at_eof():
                        await self._drop_connection()  # the server closed it while idle
                    if self._conn is None:
                        self._conn = await self._open()
                    reader, writer = self._conn
                    writer.write(exchange.request)
                    await self._io(writer.drain())
                    break
                except OSError as exc:
                    await self._drop_connection()
                    await asyncio.sleep(exchange.retry_delay(exc))
            try:
                while not exchange.receive(await self._io(reader.read(wire.RECV_BYTES))):
                    pass
            except OSError as exc:
                await self._drop_connection()
                raise exchange.failure(exc) from exc
            except ReproError:
                await self._drop_connection()
                raise
            if not exchange.reusable:
                await self._drop_connection()
        return exchange

    async def _run(self, endpoint: Callable[..., wire.Exchange], *args):
        return (await self._exchange(endpoint(self._core, *args))).result()

    async def _stream(
        self, start: int, stop: Optional[int], trace_id: Optional[str] = None
    ) -> AsyncIterator[str]:
        stream = self._core.stream(start, stop, trace_id)
        writer = None
        try:
            reader, writer = await self._open()
            writer.write(stream.request)
            await self._io(writer.drain())
            while not stream.done:
                for record in stream.receive(await self._io(reader.read(wire.RECV_BYTES))):
                    yield record
        except OSError as exc:
            raise stream.failure(exc) from exc
        finally:
            stream.close()
            if writer is not None:
                await _close(writer)

    async def total(self) -> int:
        """Record count (``__len__`` cannot await); fetched once, cached."""
        if self._core.total is None:
            await self.stats()
        return self._core.length()

    async def close(self) -> None:
        """Close the kept-alive connection (idempotent; calls reopen it)."""
        await self._drop_connection()


class AsyncFailoverCorpusClient(_AsyncEndpoints):
    """The async twin of :class:`~repro.server.client.FailoverCorpusClient`.

    The same :class:`repro.server.wire.Failover` decisions — rotating
    round-robin, failover on retryable outcomes, fatal typed errors
    propagate, stream resume at the first undelivered record under one
    trace id, the rotation and failover counters — executed over
    :class:`AsyncCorpusClient` replicas.
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
        self._clients = [
            AsyncCorpusClient(url, timeout=timeout, compress=compress) for url in self.urls
        ]

    async def _fan(self, op: Callable[[AsyncCorpusClient], Awaitable[_T]]) -> _T:
        """Run *op* against replicas in rotation until one answers."""
        attempt = self._failover.operation()
        with _tracing.trace_context(attempt.trace_id):
            while True:
                index, delay = attempt.next()
                if delay:
                    await asyncio.sleep(delay)
                try:
                    return await op(self._clients[index])
                except ReproError as exc:
                    attempt.failed(exc)

    async def _run(self, endpoint: Callable[..., wire.Exchange], *args):
        return await self._fan(lambda client: client._run(endpoint, *args))

    async def _stream(self, start: int, stop: Optional[int]) -> AsyncIterator[str]:
        attempt = self._failover.operation(start, stop)
        while True:
            index, delay = attempt.next()
            if delay:
                await asyncio.sleep(delay)
            try:
                replica = self._clients[index]
                async for record in replica._stream(attempt.resume_at, stop, attempt.trace_id):
                    attempt.advance()
                    yield record
                return
            except ReproError as exc:
                attempt.failed(exc)

    async def total(self) -> int:
        """Record count from the first replica that answers."""
        return await self._fan(lambda client: client.total())

    async def close(self) -> None:
        """Close every replica's kept-alive connection (idempotent)."""
        for client in self._clients:
            await client.close()
