"""Failure paths: typed errors over the wire, dead servers, graceful shutdown.

These pin the serving front's error contract:

* the HTTP status and JSON envelope for every caller mistake,
* *error envelope parity* — the client raises the same :mod:`repro.errors`
  class, with the same message, a direct library call would raise,
* transport failure behaviour (connection refused, death mid-stream),
* graceful shutdown draining in-flight requests before the listener dies.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro.errors import (
    ProtocolError,
    RandomAccessError,
    ServerConnectionError,
    ServerError,
)
from repro.library import AsyncCorpusLibrary, CorpusLibrary
from repro.server import BackgroundServer, CorpusClient, CorpusServer, protocol


def _raw_request(url: str, method: str, target: str, body: bytes = b"",
                 headers: dict = None) -> tuple:
    """One raw request, returning ``(status, body bytes)`` without client sugar."""
    host, port = url.rsplit(":", 1)
    conn = http.client.HTTPConnection(host[len("http://"):], int(port), timeout=10)
    try:
        conn.request(method, target, body=body or None, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestHttpErrorStatuses:
    def test_out_of_range_index_is_404(self, server, corpus):
        status, body = _raw_request(server.url, "GET", f"/records/{len(corpus)}")
        assert status == 404
        envelope = json.loads(body)["error"]
        assert envelope["type"] == "RandomAccessError"

    def test_negative_index_is_404(self, server):
        status, _ = _raw_request(server.url, "GET", "/records/-1")
        assert status == 404

    def test_non_integer_index_is_400(self, server):
        status, body = _raw_request(server.url, "GET", "/records/abc")
        assert status == 400
        assert json.loads(body)["error"]["type"] == "ProtocolError"

    def test_malformed_batch_body_is_400(self, server):
        status, body = _raw_request(server.url, "POST", "/records:batch", b"not json")
        assert status == 400
        assert json.loads(body)["error"]["type"] == "ProtocolError"

    def test_batch_without_indices_key_is_400(self, server):
        status, _ = _raw_request(server.url, "POST", "/records:batch", b'{"x": []}')
        assert status == 400

    def test_batch_with_get_method_is_400(self, server):
        status, body = _raw_request(server.url, "GET", "/records:batch")
        assert status == 400
        assert "POST" in json.loads(body)["error"]["message"]

    def test_inverted_range_is_404_like_local_slice(self, server):
        # Local slice(50, 10) raises RandomAccessError; the wire maps it 404.
        status, body = _raw_request(server.url, "GET", "/records?start=50&stop=10")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "RandomAccessError"

    def test_non_integer_range_is_400(self, server):
        status, _ = _raw_request(server.url, "GET", "/records?start=abc")
        assert status == 400

    def test_unknown_route_is_404(self, server):
        status, body = _raw_request(server.url, "GET", "/nope")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "NotFound"

    def test_unsupported_method_is_400(self, server):
        status, _ = _raw_request(server.url, "DELETE", "/records/0")
        assert status == 400

    def test_head_method_is_400(self, server):
        # HEAD would require body-less responses; the protocol doesn't speak
        # it, and answering with a body would poison keep-alive framing.
        status, _ = _raw_request(server.url, "HEAD", "/healthz")
        assert status == 400

    def test_oversized_request_line_is_400(self, server):
        """A request line past the stream limit gets an envelope, not a drop."""
        host, _, port = server.url[len("http://"):].partition(":")
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            conn.sendall(b"GET /records?start=" + b"9" * 100_000 + b" HTTP/1.1\r\n\r\n")
            response = b""
            while b"\r\n\r\n" not in response:
                data = conn.recv(65536)
                if not data:
                    break
                response += data
        assert response.startswith(b"HTTP/1.1 400")

    def test_chunked_request_body_gets_one_400_and_a_close(self, server):
        """Its chunk bytes must not be read as a second request."""
        host, _, port = server.url[len("http://"):].partition(":")
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            conn.sendall(
                b"POST /records:batch HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"13\r\n{\"indices\": [0, 1]}\r\n0\r\n\r\n"
            )
            response = b""
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                response += data
        assert response.startswith(b"HTTP/1.1 400")
        assert response.count(b"HTTP/1.1 ") == 1
        assert b"Transfer-Encoding" in response


class TestEnvelopeParity:
    """The client raises exactly what a direct library call raises."""

    def test_out_of_range_raises_random_access_error_with_same_message(
        self, client, library_dir, corpus
    ):
        index = len(corpus) + 7
        with CorpusLibrary.open(library_dir) as direct:
            with pytest.raises(RandomAccessError) as direct_exc:
                direct.get(index)
        with pytest.raises(RandomAccessError) as remote_exc:
            client.get(index)
        assert str(remote_exc.value) == str(direct_exc.value)

    def test_batch_out_of_range_raises_random_access_error(self, client, corpus):
        with pytest.raises(RandomAccessError):
            client.get_many([0, len(corpus)])

    def test_oversized_batch_raises_protocol_error(self, client, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_BATCH_INDICES", 4)
        # The client-side encoder doesn't enforce the cap; the server does.
        with pytest.raises(ProtocolError, match="cap"):
            client.get_many([0, 1, 2, 3, 4])

    def test_stream_inverted_range_raises_random_access_error(
        self, client, library_dir
    ):
        """Same exception class and message as a direct reader.slice."""
        with CorpusLibrary.open(library_dir) as direct:
            with pytest.raises(RandomAccessError) as direct_exc:
                direct.slice(50, 10)
        with pytest.raises(RandomAccessError) as remote_exc:
            list(client.iter_range(50, 10))
        assert str(remote_exc.value) == str(direct_exc.value)

    def test_slice_past_end_is_empty_like_local(self, client, library_dir, corpus):
        with CorpusLibrary.open(library_dir) as direct:
            assert direct.slice(len(corpus) + 10, len(corpus) + 20) == []
        assert client.slice(len(corpus) + 10, len(corpus) + 20) == []


class TestTransportFailures:
    def test_connection_refused_raises_server_connection_error(self):
        # Bind-then-close guarantees an unused port.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = CorpusClient(f"http://127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(ServerConnectionError):
            client.get(0)

    def test_server_death_mid_stream_raises_server_connection_error(self):
        """A stream cut before the terminating chunk is a typed error."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def serve_one_truncated() -> None:
            conn, _ = listener.accept()
            conn.recv(65536)
            payload = b"REC0\nREC1\n"
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; charset=utf-8\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + f"{len(payload):x}\r\n".encode() + payload + b"\r\n"
            )
            conn.close()  # dies before the 0-length terminating chunk

        thread = threading.Thread(target=serve_one_truncated, daemon=True)
        thread.start()
        try:
            client = CorpusClient(f"http://127.0.0.1:{port}", timeout=5.0)
            received = []
            with pytest.raises(ServerConnectionError, match="mid-stream|mid-record"):
                for record in client.iter_range(0, 100):
                    received.append(record)
            # Everything served before the cut was still delivered in order.
            assert received == ["REC0", "REC1"]
        finally:
            thread.join()
            listener.close()

    def test_stopped_server_refuses_new_requests(self, library_dir):
        with BackgroundServer(library_dir, readers=2) as server:
            url = server.url
            with CorpusClient(url) as client:
                assert client.get(0)
        late_client = CorpusClient(url, timeout=2.0)
        with pytest.raises(ServerConnectionError):
            late_client.get(0)


class TestRetryPhaseRestriction:
    """The reconnect retry must never resend after response bytes arrived.

    Regression tests for the duplicate-request bug: the old retry loop
    wrapped ``getresponse()`` as well as the send, so a server dying after
    the response began (or right after accepting) made the client silently
    issue the request twice.
    """

    @staticmethod
    def _scripted_server(handler):
        """Accept connections until told to stop; run *handler* per request.

        Returns ``(port, request_count list, stop_event, thread)``.
        """
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.25)
        port = listener.getsockname()[1]
        request_count = [0]
        stop = threading.Event()

        def serve() -> None:
            try:
                while not stop.is_set():
                    try:
                        conn, _ = listener.accept()
                    except socket.timeout:
                        continue
                    with conn:
                        conn.settimeout(5.0)
                        try:
                            data = conn.recv(65536)
                        except OSError:
                            continue
                        if not data:
                            continue
                        request_count[0] += 1
                        handler(conn, request_count[0])
            finally:
                listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return port, request_count, stop, thread

    def test_death_mid_response_is_not_retried(self):
        """Partial status line + close → one request on the wire, typed error."""

        def die_mid_status(conn, _n):
            conn.sendall(b"HTTP/1.1 2")  # response under way, then death

        port, count, stop, thread = self._scripted_server(die_mid_status)
        try:
            with CorpusClient(f"http://127.0.0.1:{port}", timeout=5.0) as client:
                with pytest.raises(ServerConnectionError, match="died before answering"):
                    client.get(0)
            # The stop/join below gives a would-be duplicate a full accept
            # cycle to land before the count is asserted.
            stop.set()
            thread.join()
            assert count[0] == 1, "the request was silently resent"
        finally:
            stop.set()
            thread.join()

    def test_death_after_headers_mid_body_is_not_retried(self):
        """Full headers + partial body + close → typed error, no resend."""

        def die_mid_body(conn, _n):
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; charset=utf-8\r\n"
                b"Content-Length: 100\r\n"
                b"Connection: keep-alive\r\n\r\n"
                b"only a few bytes"
            )

        port, count, stop, thread = self._scripted_server(die_mid_body)
        try:
            with CorpusClient(f"http://127.0.0.1:{port}", timeout=5.0) as client:
                with pytest.raises(ServerConnectionError, match="mid-response"):
                    client.get(0)
            stop.set()
            thread.join()
            assert count[0] == 1, "the request was silently resent"
        finally:
            stop.set()
            thread.join()

    def test_stale_keepalive_socket_reopens_before_send(self):
        """The classic keep-alive race is caught by the pre-send probe.

        The server answers each request completely, *claims* keep-alive,
        then closes the connection — exactly what an idle-timeout does
        between two client calls.  The client must notice the pending EOF
        before sending and reopen, so both calls succeed with exactly one
        request each (no duplicates, no spurious failures).
        """

        def serve_then_close(conn, _n):
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; charset=utf-8\r\n"
                b"Content-Length: 1\r\n"
                b"Connection: keep-alive\r\n\r\nA"
            )
            # the `with conn:` in the accept loop closes the socket here

        port, count, stop, thread = self._scripted_server(serve_then_close)
        try:
            import time

            with CorpusClient(f"http://127.0.0.1:{port}", timeout=5.0) as client:
                assert client.get(0) == "A"
                time.sleep(0.1)  # let the server-side close's FIN arrive
                assert client.get(1) == "A"
            stop.set()
            thread.join()
            assert count[0] == 2
        finally:
            stop.set()
            thread.join()


class TestStatsUptime:
    """`uptime_seconds` is always present — startedness is a flag, not a
    truthiness test on the monotonic stamp (which may legitimately be 0.0)."""

    def test_uptime_is_zero_before_start(self, library_dir):
        library = AsyncCorpusLibrary.open(library_dir, pool_size=1)
        try:
            server = CorpusServer(library)
            payload = server.stats()
            assert payload["uptime_seconds"] == 0.0
        finally:
            library.close()

    def test_uptime_reported_when_monotonic_stamp_is_falsy(self, library_dir):
        import time

        library = AsyncCorpusLibrary.open(library_dir, pool_size=1)
        try:
            server = CorpusServer(library)
            # Simulate a host whose monotonic clock read exactly 0.0 at
            # start() — the regression the truthiness check tripped over.
            server._started = True
            server._started_at = 0.0
            payload = server.stats()
            assert "uptime_seconds" in payload
            assert payload["uptime_seconds"] >= 0.0
            assert payload["uptime_seconds"] == pytest.approx(
                time.monotonic(), rel=0.1
            )
        finally:
            library.close()

    def test_uptime_live_server(self, client):
        payload = client.stats()
        assert payload["uptime_seconds"] >= 0.0


class TestStrictWireIntegers:
    """Lax integer spellings Python's int() accepts must be 400, not 500.

    (Negative values stay 404 — the local-parity contract pinned above.)
    """

    @pytest.mark.parametrize(
        "target",
        [
            "/records?start=1_0",          # underscore separator
            "/records?start=%2B1",          # leading plus
            "/records?start=%201",          # leading whitespace
            "/records?start=0&stop=1_0",
            "/records:sample?n=1_0",
            "/records:sample?n=%2B5",
            "/records:sample?n=1&seed=1_0",
            "/records/0?start=x",           # sanity: unrelated query ignored
            "/records/1_0",                 # the path index is strict too
            "/records/+5",
            "/records?start=1%0A",          # trailing newline
            "/records/" + "9" * 5000,       # past int()'s digit limit
        ],
    )
    def test_lax_integer_spelling_is_400_envelope(self, server, target):
        status, body = _raw_request(server.url, "GET", target)
        if target.startswith("/records/0"):
            assert status == 200  # single-record route ignores the query
            return
        assert status == 400
        assert json.loads(body)["error"]["type"] == "ProtocolError"

    def test_negative_start_stays_404_local_parity(self, server):
        status, body = _raw_request(server.url, "GET", "/records?start=-1")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "RandomAccessError"


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_request(self, library_dir):
        """A request being processed at shutdown completes; the listener dies."""

        async def run() -> None:
            library = AsyncCorpusLibrary.open(library_dir, pool_size=2)
            try:
                server = CorpusServer(library, port=0)
                await server.start()

                real_get_many = library.get_many

                async def slow_get_many(indices):
                    await asyncio.sleep(0.3)  # long enough to overlap shutdown
                    return await real_get_many(indices)

                library.get_many = slow_get_many  # type: ignore[method-assign]

                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                body = protocol.encode_batch_request([0, 1, 2])
                writer.write(
                    (
                        "POST /records:batch HTTP/1.1\r\n"
                        "Host: test\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                    ).encode() + body
                )
                await writer.drain()
                await asyncio.sleep(0.05)  # let the server enter the handler

                await server.shutdown(grace=5.0)
                response = await reader.read()  # drained response, then EOF
                assert b"200 OK" in response
                # All three records made it out before the connection closed.
                payload = response.split(b"\r\n\r\n", 1)[1]
                assert payload.count(b"\n") == 3
                writer.close()
            finally:
                library.close()

        asyncio.run(run())

    def test_shutdown_tears_down_idle_keepalive_quickly(self, library_dir):
        """An idle keep-alive connection must not stall shutdown for the grace."""
        import time

        async def run() -> float:
            library = AsyncCorpusLibrary.open(library_dir, pool_size=2)
            try:
                server = CorpusServer(library, port=0)
                await server.start()
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                await reader.readuntil(b"}\n")  # response done; now idle
                start = time.monotonic()
                await server.shutdown(grace=30.0)
                writer.close()
                return time.monotonic() - start
            finally:
                library.close()

        assert asyncio.run(run()) < 5.0

    def test_background_server_stop_is_idempotent(self, library_dir):
        server = BackgroundServer(library_dir, readers=2).start()
        with CorpusClient(server.url) as client:
            assert client.healthz()["status"] == "ok"
        server.stop()
        server.stop()  # second stop is a no-op

    def test_stop_before_start_is_a_noop(self, library_dir):
        server = BackgroundServer(library_dir, readers=2)
        server.stop()  # never started: returns immediately, nothing leaks

    def test_stop_racing_startup_waits_and_joins(self, library_dir):
        """A stop() issued while the server thread is still binding must
        wait for startup to resolve, then shut down — not leak the thread
        by signalling before ``_loop``/``_stop_event`` exist."""
        server = BackgroundServer(library_dir, readers=2)
        # Launch the thread body directly (what start() does first) and
        # race stop() against it *before* _ready can possibly have fired.
        server._thread = threading.Thread(
            target=lambda: asyncio.run(server._main()), daemon=True
        )
        server._thread.start()
        server.stop()  # must block on _ready, then signal, then join
        assert server._thread is None
        server.stop()  # and stay idempotent afterwards

    def test_stop_racing_startup_failure_still_joins(self, tmp_path):
        server = BackgroundServer(tmp_path / "missing.zss")
        server._thread = threading.Thread(
            target=lambda: asyncio.run(server._main()), daemon=True
        )
        server._thread.start()
        server.stop()  # startup will fail; stop must not hang on it
        assert server._thread is None

    def test_background_server_cannot_be_restarted(self, library_dir):
        # A restarted instance would report the first run's (dead) URL.
        server = BackgroundServer(library_dir, readers=2).start()
        server.stop()
        with pytest.raises(ServerError, match="restarted"):
            server.start()

    def test_startup_failure_surfaces_as_server_error(self, tmp_path):
        with pytest.raises(ServerError, match="failed to start"):
            BackgroundServer(tmp_path / "missing.zss").start()
