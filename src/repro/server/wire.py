"""The sans-IO HTTP/1.1 core of the corpus protocol: bytes in, events out.

Everything the server, both corpus clients and the fleet need to speak
HTTP/1.1 lives here, written once and free of I/O — this module imports no
socket, ``ssl``, ``select`` or ``asyncio`` (the pattern of
https://sans-io.readthedocs.io and https://h11.readthedocs.io, with no
dependency).  The callers are thin drivers that only move bytes:

* :class:`Parser` — the one incremental parser, of requests (the server)
  and of responses (the clients and the fleet's peer scrape).
  :meth:`Parser.feed` takes received bytes (``b""`` once the peer closed);
  :meth:`Parser.next_event` hands out a :class:`Head`, body ``bytes`` or an
  :class:`Event`.  Limits: :data:`MAX_LINE_BYTES` per line,
  :data:`MAX_HEADER_LINES` header lines, ``protocol.MAX_BODY_BYTES`` per
  request body.  ``Content-Length`` is strictly decimal and chunk sizes
  strictly hex.  Every violation is a typed
  :class:`~repro.errors.ProtocolError`; input that ends part-way through a
  message is :class:`IncompleteMessage`.
* :func:`encode_request` / :func:`encode_response` / :func:`response_head`
  — the one head encoder; a request travels with its body in one buffer.
* :class:`ClientCore` — one client's endpoints: each call's request and the
  decoding of its answer (Content-Encoding, error envelope → typed
  exception, batch and sample count checks, the ``/stats`` record total),
  as :class:`Exchange` round trips the drivers run over their transport.
  A :class:`StreamExchange` feeds a :class:`RecordDecoder`: incremental
  inflate, line split, the ``delivered`` count and the "ended mid-record"
  tail check.
* :class:`Failover` / :class:`Operation` — the failover clients' decisions
  as a pure state machine: rotation cursor, retry classification,
  :class:`~repro.server.retry.RetryPolicy` consumption, stream resume at
  ``start + delivered``, the exhaustion error, the rotation and failover
  counters, and one trace id per logical operation.

The drivers: :mod:`repro.server.client` (blocking sockets),
:mod:`repro.server.async_client` (asyncio streams), and the server and
fleet in :mod:`repro.server.app` / :mod:`repro.server.fleet`.
"""

from __future__ import annotations

import enum
import functools
import re
import threading
import urllib.parse
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import ProtocolError, ReproError, ServerConnectionError, ServerError
from ..telemetry import metrics as _metrics
from ..telemetry import tracing as _tracing
from . import protocol
from .retry import RetryPolicy

#: Longest start, header or chunk-size line, in bytes before its LF.
MAX_LINE_BYTES = 64 * 1024
#: Most header lines one head may carry.
MAX_HEADER_LINES = 100
#: Bytes a driver asks its transport for per read.
RECV_BYTES = 65536
#: Default per-operation transport timeout of the clients, in seconds.
DEFAULT_TIMEOUT = 30.0
#: The request methods the protocol speaks.
REQUEST_METHODS = ("GET", "POST")

_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+\Z")
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")  # CTLs except HTAB
_TARGET = re.compile(r"[\x21-\x7e]+\Z")
_STATUS = re.compile(r"[1-5][0-9][0-9]\Z")
_DECIMAL = re.compile(r"[0-9]{1,18}\Z")
_HEX = re.compile(rb"[0-9A-Fa-f]{1,16}\Z")
_BLANK = (b"\r\n", b"\n")


class IncompleteMessage(ProtocolError):
    """The input ended part-way through a message: the peer went away."""


class Event(enum.Enum):
    """What :meth:`Parser.next_event` returns besides heads and body bytes."""

    NEED_DATA = "need data"  # feed more bytes, or b"" once the peer closed
    END = "end of message"  # the current message's body is complete
    CLOSED = "closed"  # the peer closed cleanly between messages


@dataclass
class Head:
    """A request or response head; :meth:`Parser.next_message` adds the body."""

    method: Optional[str] = None
    target: Optional[str] = None
    status: Optional[int] = None
    #: Lower-cased names; a repeated name keeps its last value.
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    @property
    def content_encoding(self) -> str:
        return self.headers.get("content-encoding", "").lower()


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #
def _encode_head(start: str, headers: Sequence[Tuple[str, str]]) -> bytes:
    lines = [start]
    for name, value in headers:
        if not _TOKEN.match(name) or _CONTROL.search(value) or value != value.strip(" \t"):
            raise ProtocolError(f"cannot encode header {name!r}: {value!r}")
        lines.append(f"{name}: {value}")
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1")


def encode_request(
    method: str, target: str, headers: Dict[str, str], body: Optional[bytes] = None
) -> bytes:
    """A request head and its body in one buffer (``Content-Length`` added)."""
    if method not in REQUEST_METHODS or not _TARGET.match(target):
        raise ProtocolError(f"cannot encode request {method} {target!r}")
    fields = list(headers.items())
    if body is not None:
        fields.append(("Content-Length", str(len(body))))
    return _encode_head(f"{method} {target} HTTP/1.1", fields) + (body or b"")


def encode_response(status: int, headers: Sequence[Tuple[str, str]], body: bytes = b"") -> bytes:
    """A response head (the status line, then *headers* in order) and its body."""
    reason = protocol.STATUS_REASONS.get(status, "Unknown")
    return _encode_head(f"HTTP/1.1 {status} {reason}", headers) + body


def response_head(
    status: int,
    content_type: str,
    length: Optional[int] = None,
    encoding: Optional[str] = None,
    request_id: Optional[str] = None,
    keep_alive: bool = False,
) -> bytes:
    """This protocol's response head, for a body of *length* bytes or, when
    *length* is ``None``, a chunked one."""
    headers = [("Content-Type", content_type)]
    if length is None:
        headers.append(("Transfer-Encoding", "chunked"))
    else:
        headers.append(("Content-Length", str(length)))
    if encoding:
        headers.append(("Content-Encoding", encoding))
    if request_id is not None:
        headers.append((_tracing.HEADER_REQUEST_ID, request_id))
    headers.append(("Connection", "keep-alive" if keep_alive else "close"))
    return encode_response(status, headers)


def encode_chunk(payload: bytes) -> bytes:
    """One chunk of a chunked body; an empty *payload* is the last chunk."""
    return b"%x\r\n%s\r\n" % (len(payload), payload) if payload else b"0\r\n\r\n"


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #
# Parser states: what the next bytes on the connection are.
_HEAD, _LENGTH, _TO_CLOSE, _CHUNK_SIZE, _CHUNK_DATA, _CHUNK_END, _TRAILER, _DONE = range(8)


class Parser:
    """Incremental parser of the messages one side of a connection receives.

    ``Parser(requests=True)`` reads requests (the server side); the default
    reads responses.  Requests are framed by ``Content-Length`` alone (a
    request head carrying ``Transfer-Encoding`` is a :class:`ProtocolError`);
    responses by chunks, by ``Content-Length``, or by the connection's
    close.  The outcome never depends on how the bytes were split across
    :meth:`feed` calls.
    """

    def __init__(self, requests: bool = False):
        self._requests = requests
        self._kind = "request" if requests else "response"
        self._buf = b""
        self._pos = 0  # start of the unconsumed bytes
        self._scan = 0  # no LF in _buf[_pos:_scan]
        self._eof = False
        self._state = _HEAD
        self._head_lines = 0
        self._left = 0  # body or chunk bytes still to come
        self._parts: List[bytes] = []
        #: The head of the message being received (None until parsed).
        self.head: Optional[Head] = None

    def feed(self, data: bytes) -> None:
        """Append received bytes; an empty *data* means the peer closed."""
        if not data:
            self._eof = True
        elif self._pos:
            self._buf = self._buf[self._pos:] + data
            self._scan -= self._pos
            self._pos = 0
        else:
            self._buf += data

    @property
    def idle(self) -> bool:
        """Between messages with nothing buffered (the connection is reusable)."""
        return self._state == _HEAD and not self._head_lines and self._pos == len(self._buf)

    def next_message(self) -> Union[Head, Event]:
        """The next whole message — a :class:`Head` with its ``body`` — or
        :data:`Event.NEED_DATA` / :data:`Event.CLOSED`."""
        while True:
            event = self.next_event()
            if isinstance(event, bytes):
                self._parts.append(event)
            elif event is Event.END:
                assert self.head is not None
                self.head.body = b"".join(self._parts)
                self._parts = []
                return self.head
            elif not isinstance(event, Head):
                return event

    def next_event(self) -> Union[Head, bytes, Event]:
        """The next event: a :class:`Head`, body bytes, or an :class:`Event`."""
        while True:
            state = self._state
            if state == _HEAD:
                return self._next_head()
            if state == _DONE:
                return Event.CLOSED
            if state == _TO_CLOSE:
                if self._pos < len(self._buf):
                    return self._take(len(self._buf) - self._pos)
                if not self._eof:
                    return Event.NEED_DATA
                self._state = _DONE
                return Event.END
            if state in (_LENGTH, _CHUNK_DATA):
                if self._left:
                    available = len(self._buf) - self._pos
                    return self._take(min(self._left, available)) if available else self._starve()
                if state == _LENGTH:
                    self._state = _HEAD
                    return Event.END
                self._state = _CHUNK_END
            line = self._line()
            if line is None:
                return self._starve()
            if self._state == _CHUNK_SIZE:
                size = line.rstrip(b"\r\n")
                if not _HEX.match(size):
                    raise ProtocolError(f"malformed chunk size {line[:20]!r}")
                self._left = int(size, 16)
                self._state = _CHUNK_DATA if self._left else _TRAILER
            elif self._state == _CHUNK_END:
                if line not in _BLANK:
                    raise ProtocolError("chunk data not followed by CRLF")
                self._state = _CHUNK_SIZE
            elif line in _BLANK:  # the blank line that ends the trailer
                self._state = _HEAD
                return Event.END

    def _take(self, n: int) -> bytes:
        data = self._buf[self._pos:self._pos + n]
        self._pos += n
        self._scan = max(self._scan, self._pos)
        self._left -= n
        return data

    def _starve(self) -> Event:
        if self._eof:
            raise IncompleteMessage(f"{self._kind} cut short by end of input")
        return Event.NEED_DATA

    def _line(self) -> Optional[bytes]:
        """The next complete line (LF included), or None until it arrives."""
        end = self._buf.find(b"\n", self._scan)
        if (end if end >= 0 else len(self._buf)) - self._pos > MAX_LINE_BYTES:
            raise ProtocolError(f"{self._kind} line/header too long")
        if end < 0:
            self._scan = len(self._buf)
            return None
        line = self._buf[self._pos:end + 1]
        self._pos = self._scan = end + 1
        return line

    def _next_head(self) -> Union[Head, Event]:
        while True:
            line = self._line()
            if line is None:
                if self._eof and not self._head_lines and self._pos == len(self._buf):
                    self._state = _DONE
                    return Event.CLOSED
                return self._starve()
            if self._head_lines and line in _BLANK:
                break
            if not self._head_lines:
                self.head = self._start_line(line)
            elif self._head_lines > MAX_HEADER_LINES:
                raise ProtocolError("too many headers")
            else:
                name, colon, value = line.decode("latin-1").rstrip("\r\n").partition(":")
                value = value.strip(" \t")
                if not colon or not _TOKEN.match(name) or _CONTROL.search(value):
                    raise ProtocolError(f"malformed header line: {line[:80]!r}")
                self.head.headers[name.lower()] = value  # type: ignore[union-attr]
            self._head_lines += 1
        self._head_lines = 0
        head = self.head
        assert head is not None
        length = head.headers.get("content-length")
        if self._requests and "transfer-encoding" in head.headers:
            # Its body could not be framed: the bytes after the head would be
            # read as the next request.
            raise ProtocolError(
                "request bodies must be framed by Content-Length, not Transfer-Encoding"
            )
        if not self._requests and head.headers.get("transfer-encoding", "").lower() == "chunked":
            self._state = _CHUNK_SIZE
        elif length is None:
            self._state, self._left = (_LENGTH if self._requests else _TO_CLOSE), 0
        elif not _DECIMAL.match(length):
            raise ProtocolError("content-length is not an integer")
        else:
            self._state, self._left = _LENGTH, int(length)
            if self._requests and self._left > protocol.MAX_BODY_BYTES:
                raise ProtocolError(
                    f"body of {self._left} bytes exceeds the {protocol.MAX_BODY_BYTES} cap"
                )
        return head

    def _start_line(self, line: bytes) -> Head:
        if self._requests:
            try:
                method, target, version = line.decode("ascii").split()
            except (UnicodeDecodeError, ValueError) as exc:
                raise ProtocolError(f"malformed request line: {line[:80]!r}") from exc
            if method not in REQUEST_METHODS:
                raise ProtocolError(f"unsupported method {method!r}")
            if not version.startswith("HTTP/1."):
                raise ProtocolError(f"unsupported protocol version {version!r}")
            return Head(method=method, target=target)
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1.") or not _STATUS.match(parts[1]):
            raise ProtocolError(f"malformed status line: {line[:80]!r}")
        return Head(status=int(parts[1]))


# --------------------------------------------------------------------------- #
# Client endpoints and round trips
# --------------------------------------------------------------------------- #
def _utf8(body: bytes) -> str:
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"response is not UTF-8: {exc}") from exc


def _json_object(route: str, body: bytes) -> Dict[str, object]:
    obj = protocol.decode_json(body)
    if not isinstance(obj, dict):
        raise ProtocolError(f"{route} response must be a JSON object")
    return obj


def _batch_records(expected: int, body: bytes) -> List[str]:
    records = _utf8(body).split("\n")
    if records and records[-1] == "":
        records.pop()
    if len(records) != expected:
        raise ProtocolError(f"batch response carried {len(records)} records for {expected} indices")
    return records


class ClientCore:
    """One corpus client minus its I/O: the server URL, the counters, and
    every endpoint as an :class:`Exchange` for the driver to run.

    Both drivers hold one: :class:`~repro.server.client.CorpusClient` over
    blocking sockets, :class:`~repro.server.async_client.AsyncCorpusClient`
    over asyncio streams.
    """

    def __init__(self, base_url: str, timeout: float, compress: bool, retry: Optional[RetryPolicy]):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", "https"):
            raise ServerError(f"unsupported URL scheme {parsed.scheme!r} in {base_url!r}")
        if not parsed.hostname:
            raise ServerError(f"no host in server URL {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.https = parsed.scheme == "https"
        self.host = parsed.hostname
        self.port = parsed.port or (443 if self.https else 80)
        self.prefix = parsed.path.rstrip("/")
        self.timeout = timeout
        self.compress = compress
        #: Governs the connect/send phase, the only one where resending is safe.
        self.retry = retry if retry is not None else RetryPolicy()
        #: The corpus size, learned from ``/stats`` or ``/records:sample``.
        self.total: Optional[int] = None
        self._host_header = parsed.netloc.rpartition("@")[2]
        registry = _metrics.get_registry()
        self.requests = registry.counter(
            "zsmiles_client_requests_total", "HTTP requests issued by the corpus clients"
        )
        self.reconnects = registry.counter(
            "zsmiles_client_reconnects_total",
            "Keep-alive connections dropped and reopened after a transport failure",
        )
        self.stream_records = registry.counter(
            "zsmiles_client_stream_records_total",
            "Records delivered by range streams (counts partial streams too)",
        )

    def encode(
        self,
        method: str,
        target: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        accept: str = protocol.CONTENT_TYPE_JSON,
        trace_id: Optional[str] = None,
    ) -> bytes:
        """The request bytes, stamped with ``X-Request-Id``/``X-Trace-Id``.

        Inside a :func:`repro.telemetry.trace_context` (or given *trace_id*)
        every request of an operation carries the same id; outside one,
        each request mints its own, so server logs stay joinable.
        """
        trace = trace_id or _tracing.current_trace_id()
        request_id = trace or _tracing.new_trace_id()
        fields = {"Host": self._host_header, "Accept": accept}
        if self.compress:
            fields["Accept-Encoding"] = protocol.CONTENT_ENCODING_DEFLATE
        fields[_tracing.HEADER_REQUEST_ID] = request_id
        fields[_tracing.HEADER_TRACE_ID] = trace or request_id
        if headers:
            fields.update(headers)
        self.requests.inc()
        return encode_request(method, self.prefix + target, fields, body)

    def healthz(self) -> "Exchange":
        decode = functools.partial(_json_object, protocol.ROUTE_HEALTH)
        return Exchange(self, "GET", protocol.ROUTE_HEALTH, decode)

    def stats(self, trace: bool = False) -> "Exchange":
        target = protocol.ROUTE_STATS + ("?trace=recent" if trace else "")
        return Exchange(self, "GET", target, self._stats)

    def metrics(self) -> "Exchange":
        return Exchange(self, "GET", protocol.ROUTE_METRICS, _utf8)

    def metrics_snapshot(self) -> "Exchange":
        decode = functools.partial(_json_object, protocol.ROUTE_METRICS)
        return Exchange(self, "GET", f"{protocol.ROUTE_METRICS}?format=json", decode)

    def get(self, index: int) -> "Exchange":
        return Exchange(self, "GET", f"{protocol.RECORD_PREFIX}{index}", _utf8)

    def get_many(self, indices: Sequence[int]) -> "Exchange":
        indices = list(indices)
        return Exchange(
            self,
            "POST",
            protocol.ROUTE_BATCH,
            functools.partial(_batch_records, len(indices)),
            body=protocol.encode_batch_request(indices),
            headers={"Content-Type": protocol.CONTENT_TYPE_JSON},
        )

    def sample(self, n: int, seed: Optional[int] = None) -> "Exchange":
        query = {"n": str(n)}
        if seed is not None:
            query["seed"] = str(seed)
        target = f"{protocol.ROUTE_SAMPLE}?{urllib.parse.urlencode(query)}"
        return Exchange(self, "GET", target, self._sample)

    def stream(self, start: int, stop: Optional[int], trace_id: Optional[str] = None) -> "StreamExchange":
        query = {"start": str(start)}
        if stop is not None:
            query["stop"] = str(stop)
        target = f"{protocol.ROUTE_RECORDS}?{urllib.parse.urlencode(query)}"
        return StreamExchange(self, target, trace_id)

    def length(self) -> int:
        """The record count learned by :meth:`stats`."""
        if self.total is None:
            raise ProtocolError("/stats response carried no integer 'records'")
        return self.total

    def _stats(self, body: bytes) -> Dict[str, object]:
        payload = _json_object(protocol.ROUTE_STATS, body)
        if isinstance(payload.get("records"), int):
            self.total = payload["records"]  # type: ignore[assignment]
        return payload

    def _sample(self, body: bytes) -> Tuple[List[int], List[str]]:
        payload = _json_object(protocol.ROUTE_SAMPLE, body)
        indices, records = payload.get("indices"), payload.get("records")
        if not isinstance(indices, list) or not isinstance(records, list):
            raise ProtocolError("sample response must carry 'indices' and 'records' lists")
        if len(indices) != len(records):
            raise ProtocolError(
                f"sample response carried {len(records)} records for {len(indices)} indices"
            )
        if isinstance(payload.get("total"), int):
            self.total = payload["total"]  # type: ignore[assignment]
        return [int(i) for i in indices], [str(r) for r in records]


class Exchange:
    """One unit request/response round trip, minus the I/O.

    The driver sends :attr:`request`, feeds what it receives to
    :meth:`receive` until it returns True, then reads :meth:`result` (or
    :meth:`payload`).  Resending is confined to the connect/send phase
    (:meth:`retry_delay`): once a response byte may have arrived, a failure
    is final (:meth:`failure`), since a resend would issue the request twice.
    """

    def __init__(
        self,
        core: ClientCore,
        method: str,
        target: str,
        decode: Optional[Callable[[bytes], object]] = None,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        accept: str = protocol.CONTENT_TYPE_JSON,
        trace_id: Optional[str] = None,
    ):
        self.core = core
        self.method = method
        self.target = core.prefix + target
        self.decode = decode
        self.request = core.encode(method, target, body, headers, accept, trace_id)
        self.parser = Parser()
        self.head: Optional[Head] = None
        self._retry = core.retry.start()

    def retry_delay(self, exc: OSError) -> float:
        """The send failed: seconds to back off before resending, or raise."""
        self.core.reconnects.inc()
        delay = self._retry.next_delay()
        if delay is None:
            raise ServerConnectionError(
                f"request {self.method} {self.target} to {self.core.base_url} failed: {exc}"
            ) from exc
        return delay

    def receive(self, data: bytes) -> bool:
        """Feed received bytes (``b""`` = closed); True once the answer is in."""
        self.parser.feed(data)
        try:
            message = self.parser.next_message()
        except IncompleteMessage as exc:
            raise self.failure(exc) from exc
        if message is Event.CLOSED:
            raise self.failure(IncompleteMessage("connection closed without a response"))
        if message is Event.NEED_DATA:
            return False
        self.head = message  # type: ignore[assignment]
        return True

    @property
    def reusable(self) -> bool:
        """Whether the connection may carry the next request."""
        return self.head is not None and self.head.keep_alive and self.parser.idle

    def failure(self, exc: BaseException) -> ServerConnectionError:
        """The typed error for a transport failure once the request was sent."""
        if self.parser.head is None:
            return ServerConnectionError(
                f"server at {self.core.base_url} died before answering "
                f"{self.method} {self.target}: {exc}"
            )
        return ServerConnectionError(f"server at {self.core.base_url} died mid-response: {exc}")

    def payload(self) -> bytes:
        """The answer's body, inflated, or the typed error its envelope carries."""
        assert self.head is not None
        body, encoding = self.head.body, self.head.content_encoding
        if encoding == protocol.CONTENT_ENCODING_DEFLATE:
            body = protocol.inflate_body(body)
        elif encoding and encoding != "identity":
            raise ProtocolError(f"server sent unsupported Content-Encoding {encoding!r}")
        if self.head.status != 200:
            raise protocol.exception_from_envelope(body, self.head.status or 0)
        return body

    def result(self):
        """The endpoint's decoded answer."""
        assert self.decode is not None
        return self.decode(self.payload())


class RecordDecoder:
    """A range stream body → records: incremental inflate and line split.

    The server sync-flushes its deflate stream per chunk, so every record
    received before a mid-stream death decodes and is delivered.
    """

    def __init__(self, encoding: str, source: str):
        if encoding not in ("", "identity", protocol.CONTENT_ENCODING_DEFLATE):
            raise ProtocolError(f"server sent unsupported Content-Encoding {encoding!r}")
        deflated = encoding == protocol.CONTENT_ENCODING_DEFLATE
        self._inflater = zlib.decompressobj() if deflated else None
        self._source = source
        self._pending = b""
        #: Records handed out so far.
        self.delivered = 0

    def feed(self, data: bytes) -> Iterator[str]:
        """The records *data* completes."""
        if self._inflater is not None:
            data = self._inflate(self._inflater.decompress, data)
        return self._split(data)

    def finish(self) -> Iterator[str]:
        """The records left at the end of the body, then the tail check."""
        if self._inflater is not None:
            yield from self._split(self._inflate(self._inflater.flush))
        if self._pending:
            # Every record ends with \n: a dangling tail means the stream was
            # cut (e.g. cleanly at a chunk boundary before the last chunk).
            raise ServerConnectionError(
                f"record stream from {self._source} ended mid-record", delivered=self.delivered
            )

    def _inflate(self, step: Callable[..., bytes], *data: bytes) -> bytes:
        try:
            return step(*data)
        except zlib.error as exc:
            raise ProtocolError(f"corrupt deflate stream from {self._source}: {exc}") from exc

    def _split(self, data: bytes) -> Iterator[str]:
        if not data:
            return
        lines = (self._pending + data).split(b"\n")
        self._pending = lines.pop()
        for line in lines:
            record = _utf8(line)
            self.delivered += 1
            yield record


class StreamExchange(Exchange):
    """One range stream round trip, minus the I/O.

    :meth:`receive` yields the records each read completes, until
    :attr:`done`; a non-200 answer raises its typed envelope once the
    whole body is in.
    """

    def __init__(self, core: ClientCore, target: str, trace_id: Optional[str]):
        super().__init__(core, "GET", target, accept=protocol.CONTENT_TYPE_TEXT, trace_id=trace_id)
        self.decoder: Optional[RecordDecoder] = None
        #: True once the whole stream arrived and passed the tail check.
        self.done = False
        self._parts: List[bytes] = []

    @property
    def delivered(self) -> int:
        return self.decoder.delivered if self.decoder is not None else 0

    def receive(self, data: bytes) -> Iterator[str]:  # type: ignore[override]
        self.parser.feed(data)
        while True:
            try:
                event = self.parser.next_event()
            except IncompleteMessage as exc:
                raise self.failure(exc) from exc
            if event is Event.NEED_DATA:
                return
            if isinstance(event, Head):
                self.head = event
                if event.status == 200:
                    self.decoder = RecordDecoder(event.content_encoding, self.core.base_url)
            elif isinstance(event, bytes):
                if self.decoder is not None:
                    yield from self.decoder.feed(event)
                else:
                    self._parts.append(event)
            elif event is Event.END and self.decoder is not None:
                yield from self.decoder.finish()
                self.done = True
                return
            elif event is Event.END:
                assert self.head is not None
                self.head.body = b"".join(self._parts)
                self.payload()  # raises the envelope's typed error
            else:
                raise self.failure(IncompleteMessage("connection closed without a response"))

    def failure(self, exc: BaseException) -> ServerConnectionError:
        if self.decoder is None:
            return ServerConnectionError(
                f"request GET {self.target} to {self.core.base_url} failed: {exc}"
            )
        if isinstance(exc, TimeoutError):
            what = f"stalled mid-stream (no data within {self.core.timeout}s)"
        else:
            what = "died mid-stream"
        message = f"server at {self.core.base_url} {what}: {exc}"
        return ServerConnectionError(message, delivered=self.delivered)

    def close(self) -> None:
        """Count the delivered records (partial streams too)."""
        if self.delivered:
            self.core.stream_records.inc(self.delivered)


# --------------------------------------------------------------------------- #
# Failover
# --------------------------------------------------------------------------- #
class Failover:
    """Replica routing shared by the sync and async failover clients.

    Calls start at a rotating cursor (client-side round-robin); a
    *retryable* failure (:func:`repro.server.protocol.is_retryable`) moves
    the call to the next replica while a fatal typed error propagates at
    once, and the :class:`~repro.server.retry.RetryPolicy` decides how many
    full rotations, with backoff between them, to spend before exhaustion.
    """

    def __init__(self, urls: Union[str, Sequence[str]], retry: Optional[RetryPolicy]):
        replica_urls = protocol.split_replica_urls(urls)
        if not replica_urls:
            raise ServerError(f"no replica URLs in {urls!r}")
        self.urls: Tuple[str, ...] = tuple(replica_urls)
        self.retry = retry if retry is not None else RetryPolicy()
        self._cursor = 0
        self._lock = threading.Lock()
        registry = _metrics.get_registry()
        self._rotations = registry.counter(
            "zsmiles_client_rotations_total", "Replica rotations started by the failover client"
        )
        self._failovers = registry.counter(
            "zsmiles_client_failovers_total",
            "Retryable per-replica failures that moved a call to the next replica",
        )

    def operation(self, start: Optional[int] = None, stop: Optional[int] = None) -> "Operation":
        """Begin one logical call (a range stream when *start* is given)."""
        return Operation(self, start, stop)

    def _rotation(self) -> List[int]:
        with self._lock:
            first = self._cursor
            self._cursor = (first + 1) % len(self.urls)
        self._rotations.inc()
        return [(first + i) % len(self.urls) for i in range(len(self.urls))]


class Operation:
    """One logical call's walk over the replicas.

    The driver loops: ``index, delay = op.next()``, backs off *delay*
    seconds, tries replica *index*, and hands any
    :class:`~repro.errors.ReproError` to :meth:`failed`.  Streams call
    :meth:`advance` per record delivered and resume at :attr:`resume_at`;
    progress refills the retry budget, so a long stream may outlive many
    replica deaths — without gaps or duplicates.
    """

    def __init__(self, failover: Failover, start: Optional[int], stop: Optional[int]):
        self._failover = failover
        self._retry = failover.retry.start()
        self._order: List[int] = []
        self._spent = False  # a rotation ran out without progress
        self._progressed = False
        self.start = start
        self.stop = stop
        self.delivered = 0
        self.last_error: Optional[ReproError] = None
        #: Every request of the operation carries this id, resumes included.
        self.trace_id = _tracing.current_trace_id() or _tracing.new_trace_id()

    @property
    def resume_at(self) -> int:
        return (self.start or 0) + self.delivered

    def next(self) -> Tuple[int, float]:
        """The replica to try next, and the seconds to back off first."""
        delay: Optional[float] = 0.0
        if not self._order:
            if self._spent:
                delay = self._retry.next_delay()
                if delay is None:
                    raise self._exhausted() from self.last_error
            self._order = self._failover._rotation()
            self._spent = True
        return self._order.pop(0), delay or 0.0

    def failed(self, exc: ReproError) -> None:
        """Re-raise a fatal error; count a retryable one and move on."""
        if not protocol.is_retryable(exc):
            raise exc
        self._failover._failovers.inc()
        self.last_error = exc
        if self._progressed:
            # Partial delivery: restart the rotation with a fresh budget
            # rather than burning the remaining replicas of this one.
            self._progressed = self._spent = False
            self._order = []
            self._retry.reset_progress()

    def advance(self) -> None:
        """One more stream record reached the caller."""
        self.delivered += 1
        self._progressed = True

    def _exhausted(self) -> ServerConnectionError:
        urls = self._failover.urls
        fleet = f"({', '.join(urls)}); last error: {self.last_error}"
        if self.start is None:
            return ServerConnectionError(f"all {len(urls)} replicas failed {fleet}")
        return ServerConnectionError(
            f"all {len(urls)} replicas failed streaming [{self.resume_at}, {self.stop}) {fleet}",
            delivered=self.delivered,
        )
