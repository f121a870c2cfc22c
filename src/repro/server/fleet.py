"""Multi-process serving: :class:`ServerFleet` (``zsmiles serve --workers N``).

One process tops out near ~2.8k single-get req/s (the serving benchmark's
``benchmarks/results/BENCH_server.json``); "millions of users" needs more
*processes*, not a faster loop.  The fleet tier pre-forks N worker
processes, each running the same :class:`~repro.server.app.CorpusServer`
over its own :class:`~repro.library.AsyncCorpusLibrary` of the same on-disk
corpus (shards are immutable, so N readers share nothing but the page
cache), and presents them behind a single URL two ways:

**SO_REUSEPORT mode** (Linux/BSD, the default where available)
    Every worker binds the *same* host:port with ``SO_REUSEPORT`` and the
    kernel load-balances incoming connections across the listening sockets.
    The parent reserves the port first with a bound-but-*not*-listening
    placeholder socket: binding resolves an ephemeral port 0 up front so
    workers can be told the real port, and a non-listening socket never
    joins the kernel's dispatch group, so the placeholder cannot eat
    connections — there is no window where a connection can be lost to it.

**Proxy fallback mode** (everywhere else, or ``prefer_reuse_port=False``)
    Workers bind loopback ephemeral ports; the parent runs a tiny asyncio
    TCP proxy on the public port that round-robins *connections* across
    worker backends, skipping backends that refuse (a crashed worker) and
    answering with a typed 503 :class:`~repro.errors.ServerBusyError`
    envelope when none accept — the retryable signal the failover clients
    understand.

Worker lifecycle: workers are ``multiprocessing`` *spawn* processes (the
repo's pool idiom — no forked locks, CI-friendly), each running
:func:`~repro.server.app.serve` on its main thread's event loop.  Once
bound, a worker reports ``("ready", worker_id, port, records, admin_port)``
on a queue and acknowledges the fleet's admin-port roster with
``("peers-ok", worker_id)``; a start-up failure is reported as
``("error", worker_id, "<Type>: <message>")`` instead.  It serves until
SIGTERM, then drains in-flight requests and exits 0.  A SIGKILLed worker
drops out of the reuseport dispatch group (or starts refusing proxy
connects) and the survivors keep serving — the crash-tolerance the fleet
tests pin.

``zsmiles serve --workers N`` hosts a fleet through
:func:`repro.server.app.run_server`.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import queue
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.codec import ZSmilesCodec
from ..errors import ServerBusyError, ServerError
from ..library import DEFAULT_POOL_SIZE, DEFAULT_STREAM_BATCH
from ..store.reader import DEFAULT_CACHE_BLOCKS
from . import protocol, wire
from .app import DEFAULT_HOST, CorpusServer, serve

PathLike = Union[str, Path]

#: Seconds the parent waits for every worker to report ready.
DEFAULT_READY_TIMEOUT = 60.0
#: Seconds a SIGTERMed worker gets to drain before SIGKILL.
DEFAULT_STOP_TIMEOUT = 15.0

_PROXY_PIPE_BYTES = 65536


def _reuse_port_supported() -> bool:
    """Whether this platform can share one listening port across processes."""
    return hasattr(socket, "SO_REUSEPORT")


# --------------------------------------------------------------------------- #
# Worker process body (module-level: spawn pickles it by reference)
# --------------------------------------------------------------------------- #
def _worker_main(
    worker_id: int,
    source: str,
    options: Dict[str, object],
    ready_queue: "multiprocessing.Queue",
    peers_queue: "multiprocessing.Queue",
) -> None:
    """One fleet worker: :func:`serve` *source* until SIGTERM, drain, exit.

    *options* are :func:`serve`'s keywords; ``port`` is the shared fleet
    port in reuseport mode (every worker binds it) and ``0`` in proxy mode
    (each worker reports its own ephemeral port).  Once bound, the worker
    reports its ports on *ready_queue*, then waits for the fleet's roster
    of admin ports on *peers_queue* and acknowledges it, so any worker can
    aggregate ``/stats`` and ``/metrics`` across the whole fleet.
    """
    import signal

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without loop signal handlers
        reported = False

        async def started(server: CorpusServer) -> None:
            nonlocal reported
            reported = True
            ready_queue.put(
                ("ready", worker_id, server.port, len(server.library), server.admin_port)
            )
            # Poll (short blocking gets in the executor) so a stop never
            # waits on a long queue.get if the parent dies mid-handshake.
            deadline = time.monotonic() + DEFAULT_READY_TIMEOUT
            while time.monotonic() < deadline and not stop.is_set():
                try:
                    roster = await loop.run_in_executor(
                        None, functools.partial(peers_queue.get, True, 0.25)
                    )
                except queue.Empty:
                    continue
                server.peer_admin_ports = roster
                ready_queue.put(("peers-ok", worker_id))
                return

        try:
            await serve(source, started, stop, worker_id=worker_id, **options)
        except Exception as exc:
            if reported:
                raise
            ready_queue.put(("error", worker_id, f"{type(exc).__name__}: {exc}"))

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover — SIGINT race on teardown
        pass


# --------------------------------------------------------------------------- #
# The fleet
# --------------------------------------------------------------------------- #
class ServerFleet:
    """N pre-fork :class:`CorpusServer` workers behind one URL.

    Use as a context manager (mirrors :class:`BackgroundServer`)::

        with ServerFleet("corpus.library", workers=4) as fleet:
            client = CorpusClient(fleet.url)
            ...

    Attributes of note once started: :attr:`url` (the single public URL),
    :attr:`mode` (``"reuseport"`` or ``"proxy"``), :attr:`records` (corpus
    size as reported by the workers), and :meth:`worker_pids` /
    :meth:`kill_worker` for the crash-tolerance tests.
    """

    def __init__(
        self,
        source: PathLike,
        workers: int = 2,
        codec: Optional[ZSmilesCodec] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
        readers: int = DEFAULT_POOL_SIZE,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        use_mmap: bool = False,
        stream_batch: int = DEFAULT_STREAM_BATCH,
        prefer_reuse_port: bool = True,
        ready_timeout: float = DEFAULT_READY_TIMEOUT,
        access_log: Optional[str] = None,
    ):
        if workers < 1:
            raise ServerError(f"workers must be >= 1, got {workers}")
        self._source = str(source)
        self._host = host
        self._port = port
        self._options: Dict[str, object] = dict(
            codec=codec,
            host=host,
            readers=readers,
            cache_blocks=cache_blocks,
            use_mmap=use_mmap,
            stream_batch=stream_batch,
            access_log=access_log,
        )
        self._ready_timeout = ready_timeout
        self.admin_ports: List[int] = []
        self.workers = workers
        self.mode = (
            "reuseport" if prefer_reuse_port and _reuse_port_supported() else "proxy"
        )
        self.records: Optional[int] = None
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._backend_ports: List[int] = []
        self._placeholder: Optional[socket.socket] = None
        self._proxy_thread: Optional[threading.Thread] = None
        self._proxy_loop: Optional[asyncio.AbstractEventLoop] = None
        self._proxy_stop: Optional[asyncio.Event] = None
        self._proxy_ready = threading.Event()
        self._proxy_error: Optional[BaseException] = None
        self._proxy_rr = 0
        self._started = False
        self._stop_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServerFleet":
        if self._started or self._processes:
            raise ServerError("ServerFleet cannot be restarted; create a new instance")
        ctx = multiprocessing.get_context("spawn")
        ready_queue = ctx.Queue()
        peers_queue = ctx.Queue()
        if self.mode == "reuseport":
            # Reserve the port with a bound-but-NOT-listening placeholder:
            # bind resolves port 0 so every worker can be told the real
            # port, and a socket that never listens never joins the
            # kernel's reuseport dispatch group — no connection can be
            # routed to the parent by mistake.
            placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                placeholder.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                )
                placeholder.bind((self._host, self._port))
            except OSError:
                placeholder.close()
                raise
            self._placeholder = placeholder
            self._port = placeholder.getsockname()[1]
            options = dict(self._options, port=self._port, reuse_port=True)
        else:
            options = dict(self._options, port=0)
        # Everything from the first spawn onward runs under the teardown
        # guard: a failure while spawning worker k (or while awaiting
        # readiness) must terminate and join workers 0..k-1 — and release
        # the placeholder port — instead of leaking live processes behind
        # the raised startup error.
        try:
            for worker_id in range(self.workers):
                process = ctx.Process(
                    target=_worker_main,
                    args=(worker_id, self._source, options, ready_queue, peers_queue),
                    name=f"zsmiles-fleet-worker-{worker_id}",
                    daemon=True,
                )
                process.start()
                self._processes.append(process)
            ready = self._collect(ready_queue, "ready")
            self._backend_ports = [ready[i][2] for i in range(self.workers)]
            self.admin_ports = [ready[i][4] for i in range(self.workers)]
            self.records = ready[0][3]
            for _ in range(self.workers):
                peers_queue.put(self.admin_ports)
            self._collect(ready_queue, "peers-ok")
            if self.mode == "proxy":
                self._start_proxy()
        except BaseException:
            self._teardown(force=True)
            raise
        self._started = True
        return self

    def _collect(self, ready_queue: "multiprocessing.Queue", kind: str) -> Dict[int, tuple]:
        """One *kind* message per worker, in any order, keyed by worker id.

        A worker's ``error`` report, a worker that died, or no message
        within the ready timeout fails start-up with :class:`ServerError`
        (its peers would otherwise serve without it, or with per-worker
        numbers only).
        """
        deadline = time.monotonic() + self._ready_timeout
        messages: Dict[int, tuple] = {}
        while len(messages) < self.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerError(
                    f"fleet startup timed out: {len(messages)}/{self.workers} "
                    f"workers sent {kind!r} after {self._ready_timeout}s"
                )
            try:
                message = ready_queue.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                # A dead worker has flushed whatever it put on the queue, so
                # only an empty queue means it died without reporting.
                dead = [p for p in self._processes if not p.is_alive()]
                if dead and ready_queue.empty():
                    raise ServerError(
                        f"fleet worker {dead[0].name} exited during startup "
                        f"(exitcode {dead[0].exitcode})"
                    )
                continue
            if message[0] == "error":
                _, worker_id, detail = message
                raise ServerError(f"fleet worker {worker_id} failed to start: {detail}")
            if message[0] == kind:
                messages[message[1]] = message
        return messages

    # -- proxy fallback -------------------------------------------------- #
    def _start_proxy(self) -> None:
        self._proxy_thread = threading.Thread(
            target=lambda: asyncio.run(self._proxy_main()),
            name="zsmiles-fleet-proxy",
            daemon=True,
        )
        self._proxy_thread.start()
        self._proxy_ready.wait()
        if self._proxy_error is not None:
            raise ServerError(
                f"fleet proxy failed to start: {self._proxy_error}"
            ) from self._proxy_error

    async def _proxy_main(self) -> None:
        try:
            server = await asyncio.start_server(
                self._proxy_connection, self._host, self._port
            )
        except BaseException as exc:
            self._proxy_error = exc
            self._proxy_ready.set()
            return
        self._port = server.sockets[0].getsockname()[1]
        self._proxy_loop = asyncio.get_running_loop()
        self._proxy_stop = asyncio.Event()
        self._proxy_ready.set()
        async with server:
            await self._proxy_stop.wait()

    async def _proxy_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Round-robin one client connection onto a live worker backend."""
        n = len(self._backend_ports)
        start = self._proxy_rr
        self._proxy_rr = (start + 1) % n  # single loop: plain int is safe
        backend = None
        for offset in range(n):
            port = self._backend_ports[(start + offset) % n]
            try:
                backend = await asyncio.open_connection(self._host, port)
                break
            except OSError:
                continue  # dead worker: skip to the next backend
        if backend is None:
            # Every backend refused: answer with the typed, *retryable*
            # envelope so failover clients treat the whole fleet as busy.
            status, body = protocol.encode_error(ServerBusyError("no live fleet workers"))
            head = wire.response_head(status, protocol.CONTENT_TYPE_JSON, len(body))
            try:
                writer.write(head + body)
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        backend_reader, backend_writer = backend
        await asyncio.gather(
            self._pipe(reader, backend_writer),
            self._pipe(backend_reader, writer),
            return_exceptions=True,
        )
        for w in (backend_writer, writer):
            w.close()

    @staticmethod
    async def _pipe(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                chunk = await reader.read(_PROXY_PIPE_BYTES)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
            if writer.can_write_eof():
                writer.write_eof()
        except (ConnectionError, OSError):
            pass  # one side vanished; the gather tears the pair down

    # ------------------------------------------------------------------ #
    # Introspection / fault injection
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """The fleet's single public URL (valid once :meth:`start` returned)."""
        return f"http://{self._host}:{self._port}"

    @property
    def port(self) -> int:
        return self._port

    @property
    def backend_ports(self) -> List[int]:
        """Per-worker ports (all equal in reuseport mode)."""
        if self.mode == "reuseport":
            return [self._port] * len(self._processes)
        return list(self._backend_ports)

    def worker_pids(self) -> List[int]:
        return [p.pid for p in self._processes if p.pid is not None]

    def alive_workers(self) -> int:
        return sum(1 for p in self._processes if p.is_alive())

    def kill_worker(self, index: int = 0) -> int:
        """SIGKILL worker *index* (fault injection for the crash tests).

        Returns the killed worker's pid.  The kernel removes its listening
        socket from the reuseport group (or the proxy starts skipping it),
        so new connections only ever reach survivors.
        """
        process = self._processes[index]
        pid = process.pid
        process.kill()
        process.join(timeout=DEFAULT_STOP_TIMEOUT)
        return pid  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Graceful, idempotent shutdown: SIGTERM, drain, join, clean up."""
        with self._stop_lock:
            if not self._processes and self._placeholder is None:
                return
            self._teardown(force=False)

    def _teardown(self, force: bool) -> None:
        for process in self._processes:
            if process.is_alive():
                if force:
                    process.kill()
                else:
                    process.terminate()  # SIGTERM → graceful worker drain
        for process in self._processes:
            process.join(timeout=DEFAULT_STOP_TIMEOUT)
            if process.is_alive():  # pragma: no cover — drain overran
                process.kill()
                process.join(timeout=DEFAULT_STOP_TIMEOUT)
        self._processes = []
        if self._proxy_thread is not None:
            if self._proxy_loop is not None and self._proxy_stop is not None:
                try:
                    self._proxy_loop.call_soon_threadsafe(self._proxy_stop.set)
                except RuntimeError:
                    pass  # loop already closed
            self._proxy_thread.join(timeout=DEFAULT_STOP_TIMEOUT)
            self._proxy_thread = None
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

    def __enter__(self) -> "ServerFleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
