"""The wire schema shared by the corpus server and its clients.

One module pins *what* travels — everything both sides must agree on — so
the server (:mod:`repro.server.app`), the fleet, and both client drivers
(:mod:`repro.server.client`, :mod:`repro.server.async_client`) cannot
drift apart.  *How* it travels — HTTP/1.1 framing, parsing and encoding,
the clients' endpoint calls and failover decisions — is the sans-IO core in
:mod:`repro.server.wire`, which all of them run:

* **Routes** — ``/healthz``, ``/stats``, ``/records/{i}``,
  ``/records:batch`` and the ``/records?start=&stop=`` range stream.
* **Content types** — single records and streamed ranges travel as
  ``text/plain; charset=utf-8`` (one record per line, exactly the ``.smi``
  framing every other layer uses); structured payloads travel as
  ``application/json``.
* **The error envelope** — every non-2xx response is a JSON object
  ``{"error": {"type": ..., "message": ...}}`` whose ``type`` is the
  :mod:`repro.errors` class name.  :func:`status_for_exception` maps
  exceptions to HTTP statuses on the way out;
  :func:`exception_from_envelope` maps envelopes back to the *same*
  exception classes on the way in, so ``client.get(10**9)`` raises the
  :class:`~repro.errors.RandomAccessError` a direct
  :meth:`CorpusLibrary.get` would — the parity the failure-path tests pin.
* **Body limits** — request bodies and batch sizes are bounded so a
  misbehaving client cannot balloon server memory.
* **Content-Encoding negotiation** — ``/records:batch`` and range-stream
  responses travel zlib-deflated when the request advertises
  ``Accept-Encoding: deflate`` (and the identity body clears
  :data:`MIN_COMPRESS_BYTES`); :func:`negotiate_encoding` /
  :func:`inflate_body` keep both sides byte-identical to the identity path.
* **Retry classification** — :func:`is_retryable` is the one policy the
  replica-aware failover clients apply: transport failures
  (:class:`~repro.errors.ServerConnectionError`) and HTTP 503
  (:class:`~repro.errors.ServerBusyError`) mean "try another replica";
  everything else (404, 400, 500) is the *request's* fault or a corpus
  fault every replica shares, so failing over would only repeat it.
"""

from __future__ import annotations

import json
import re
import zlib
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from ..errors import (
    BlockCorruptionError,
    LibraryError,
    ManifestError,
    ProtocolError,
    RandomAccessError,
    ReproError,
    ServerBusyError,
    ServerConnectionError,
    ServerError,
    StoreError,
    StoreFormatError,
)
from ..store.reader import checked_range

#: Wire-protocol version reported by ``/healthz`` and ``/stats``.
PROTOCOL_VERSION = 1

# --------------------------------------------------------------------------- #
# Routes
# --------------------------------------------------------------------------- #
ROUTE_HEALTH = "/healthz"
ROUTE_STATS = "/stats"
ROUTE_METRICS = "/metrics"
ROUTE_RECORDS = "/records"
ROUTE_BATCH = "/records:batch"
ROUTE_SAMPLE = "/records:sample"
#: Prefix of the single-record route (``/records/{index}``).
RECORD_PREFIX = ROUTE_RECORDS + "/"

# --------------------------------------------------------------------------- #
# Content types
# --------------------------------------------------------------------------- #
CONTENT_TYPE_JSON = "application/json"
CONTENT_TYPE_TEXT = "text/plain; charset=utf-8"
#: The Prometheus text exposition format version ``GET /metrics`` serves.
CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Hard cap on request body bytes (a batch of ~1M indices fits comfortably).
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Hard cap on indices per ``/records:batch`` request.
MAX_BATCH_INDICES = 100_000
#: Hard cap on records per ``/records:sample`` request.
MAX_SAMPLE_RECORDS = 100_000

#: The one compression coding the protocol negotiates ("deflate" is the zlib
#: format, RFC 9110 §8.4.1.2 — stdlib ``zlib`` on both sides).
CONTENT_ENCODING_DEFLATE = "deflate"
#: Identity bodies below this size are never compressed: the zlib header +
#: dictionary warm-up costs more than it saves on tiny payloads.
MIN_COMPRESS_BYTES = 256
#: zlib level for response bodies (6 is zlib's default speed/ratio balance).
COMPRESS_LEVEL = 6

#: Reason phrases for the statuses the protocol emits.
STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


# --------------------------------------------------------------------------- #
# Error envelope
# --------------------------------------------------------------------------- #
#: Exception classes that may legitimately cross the wire, by envelope name.
#: Order matters for :func:`status_for_exception`: first match wins.
_STATUS_BY_EXCEPTION: Tuple[Tuple[Type[BaseException], int], ...] = (
    (RandomAccessError, 404),  # out-of-range index: the resource does not exist
    (ProtocolError, 400),      # the caller sent something malformed
    (ServerBusyError, 503),    # transient: try again / try another replica
    (ManifestError, 500),      # server-side corpus trouble from here down
    (StoreFormatError, 500),
    (LibraryError, 500),
    (StoreError, 500),
    (ServerError, 500),
    (ReproError, 500),
)

_EXCEPTION_BY_NAME: Dict[str, Type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        RandomAccessError,
        ProtocolError,
        ManifestError,
        BlockCorruptionError,
        StoreFormatError,
        LibraryError,
        StoreError,
        ServerBusyError,
        ServerConnectionError,
        ServerError,
    )
}


def status_for_exception(exc: BaseException) -> int:
    """The HTTP status an exception maps to (500 for anything unexpected)."""
    for cls, status in _STATUS_BY_EXCEPTION:
        if isinstance(exc, cls):
            return status
    return 500


def error_envelope(
    exc: BaseException, status: int, request_id: Optional[str] = None
) -> Dict[str, object]:
    """The JSON-serializable error body for *exc*.

    *request_id* — the id the server adopted from the client's
    ``X-Request-Id`` header (or minted) — is echoed inside the envelope,
    so a failing request can be matched against the server's access log.
    """
    error: Dict[str, object] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "status": status,
    }
    if request_id is not None:
        error["request_id"] = request_id
    return {"error": error}


def encode_error(
    exc: BaseException, request_id: Optional[str] = None
) -> Tuple[int, bytes]:
    """Render *exc* as ``(status, envelope bytes)`` for the response."""
    status = status_for_exception(exc)
    return status, encode_json(error_envelope(exc, status, request_id))


def exception_from_envelope(body: bytes, status: int) -> ReproError:
    """Rebuild the typed exception an error response carries.

    Unknown types (and unparsable bodies) degrade to :class:`ServerError`
    so the client always raises something from the :mod:`repro.errors`
    hierarchy, never a bare ``KeyError`` over a malformed envelope.
    """
    message = f"server returned HTTP {status}"
    name = ""
    request_id: Optional[str] = None
    try:
        obj = json.loads(body.decode("utf-8"))
        error = obj.get("error", {}) if isinstance(obj, dict) else {}
        if isinstance(error, dict):
            name = str(error.get("type", ""))
            message = str(error.get("message", message))
            if isinstance(error.get("request_id"), str):
                request_id = error["request_id"]
    except (ValueError, UnicodeDecodeError):
        pass
    # A 503 whose envelope is untyped (a proxy, a load balancer) is still a
    # "try another replica" signal — degrade to ServerBusyError, not the
    # fatal ServerError, so failover clients keep their retry classification.
    default = ServerBusyError if status == 503 else ServerError
    cls = _EXCEPTION_BY_NAME.get(name, default)
    exc = cls(message)
    # The id the server echoed, for log correlation (None when absent).
    exc.request_id = request_id  # type: ignore[attr-defined]
    return exc


def is_retryable(exc: BaseException) -> bool:
    """Whether a failover client may retry *exc* against another replica.

    Transport failures (:class:`ServerConnectionError`: refused, died
    mid-stream), HTTP 503 (:class:`ServerBusyError`), and block corruption
    (:class:`BlockCorruptionError`) are replica-local — another replica may
    well answer; in the corruption case the other replica holds its own
    copy of the shard bytes, so a degraded read can be healed transparently
    by fail-over.  Everything else (404 out-of-range, 400 malformed, 500
    corpus trouble) would fail identically everywhere, so it propagates
    immediately.
    """
    return isinstance(
        exc, (ServerBusyError, ServerConnectionError, BlockCorruptionError)
    )


# --------------------------------------------------------------------------- #
# Bodies
# --------------------------------------------------------------------------- #
def encode_json(obj: object) -> bytes:
    """Deterministic JSON bytes (sorted keys, compact separators)."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def decode_json(body: bytes) -> object:
    """Parse a JSON request/response body, raising :class:`ProtocolError`."""
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"body is not valid JSON: {exc}") from exc


def encode_batch_request(indices: List[int]) -> bytes:
    """The ``/records:batch`` request body for *indices*."""
    return encode_json({"indices": list(indices)})


def parse_batch_request(body: bytes) -> List[int]:
    """Validate a ``/records:batch`` body into a list of indices.

    Raises :class:`ProtocolError` (HTTP 400) for anything malformed: bad
    JSON, a missing or non-list ``indices`` key, non-integer entries (bools
    included), or more than :data:`MAX_BATCH_INDICES` entries.
    """
    obj = decode_json(body)
    if not isinstance(obj, dict) or "indices" not in obj:
        raise ProtocolError('batch body must be a JSON object with an "indices" key')
    indices = obj["indices"]
    if not isinstance(indices, list):
        raise ProtocolError('"indices" must be a JSON array')
    if len(indices) > MAX_BATCH_INDICES:
        raise ProtocolError(
            f"batch of {len(indices)} indices exceeds the {MAX_BATCH_INDICES} cap"
        )
    for value in indices:
        # bool is an int subclass; reject it explicitly.
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(f"batch indices must be integers, got {value!r}")
    return list(indices)


def encode_records_body(records: List[str]) -> bytes:
    """A batch/stream payload: one record per line (``.smi`` framing)."""
    return "".join(record + "\n" for record in records).encode("utf-8")


#: The only integer spelling the wire accepts.  Python's ``int()`` is far
#: laxer — it swallows ``"+5"``, ``" 5 "``, ``"1_0"`` and non-ASCII digits —
#: and the laxest inputs used to reach handlers as values no local call could
#: ever produce.  Strict decimal keeps remote inputs inside the local domain.
#: (``\Z``, not ``$``: ``$`` also matches before a trailing newline.)
_STRICT_INT_RE = re.compile(r"-?[0-9]+\Z")


def parse_query_int(name: str, raw: str) -> int:
    """Parse one query/path integer strictly, or raise :class:`ProtocolError`.

    Every malformed value — non-numeric, underscore separators, leading
    ``+``, surrounding whitespace, a trailing newline, non-ASCII digits, more
    digits than the interpreter converts — is an HTTP 400 envelope, never a
    500 out of a surprised handler.
    """
    if _STRICT_INT_RE.match(raw):
        try:
            return int(raw)
        except ValueError:  # past sys.get_int_max_str_digits()
            pass
    raise ProtocolError(f"{name} must be a decimal integer, got {raw!r}")


def parse_range_query(query: Dict[str, str], total: int) -> Tuple[int, int]:
    """Validate ``start``/``stop`` query parameters for the range stream.

    Mirrors the local ``slice`` contract of
    :class:`~repro.store.reader.RecordAccessMixin` exactly, so remote and
    local reads fail (and succeed) identically: a negative ``start`` or an
    inverted range — judged on the *raw* values, before clamping — raises
    :class:`RandomAccessError` (HTTP 404, the class a direct
    ``reader.slice`` raises); ``stop`` then defaults to *total* and is
    clamped to it, so a ``start`` past the end yields an empty stream, not
    an error.  Only non-integer values are :class:`ProtocolError` (HTTP
    400) — those cannot occur locally.
    """
    start = parse_query_int("start", query.get("start", "0"))
    stop = parse_query_int("stop", query["stop"]) if "stop" in query else total
    return checked_range(start, stop, total)


def parse_sample_query(query: Dict[str, str], total: int) -> Tuple[int, "int | None"]:
    """Validate ``n``/``seed`` query parameters for ``/records:sample``.

    ``n`` is required, must be a non-negative integer, and is capped at
    :data:`MAX_SAMPLE_RECORDS`; it is clamped to *total* (sampling is
    without replacement, so you cannot draw more records than exist).
    ``seed`` is optional; when present it must be an integer and makes the
    draw deterministic.  Every violation is :class:`ProtocolError`
    (HTTP 400) — there is no local slice analogue to mirror.
    """
    if "n" not in query:
        raise ProtocolError('sample requires an "n" query parameter')
    n = parse_query_int("n", query["n"])
    if n < 0:
        raise ProtocolError(f"n must be >= 0, got {n}")
    if n > MAX_SAMPLE_RECORDS:
        raise ProtocolError(
            f"sample of {n} records exceeds the {MAX_SAMPLE_RECORDS} cap"
        )
    seed = None
    if "seed" in query:
        seed = parse_query_int("seed", query["seed"])
    return min(n, total), seed


def sample_payload(indices: List[int], records: List[str], total: int, seed) -> Dict[str, object]:
    """The ``/records:sample`` JSON response body."""
    return {
        "indices": list(indices),
        "records": list(records),
        "total": total,
        "seed": seed,
    }


# --------------------------------------------------------------------------- #
# Content-Encoding negotiation
# --------------------------------------------------------------------------- #
def accepts_deflate(headers: Dict[str, str]) -> bool:
    """Whether a request's ``Accept-Encoding`` admits the deflate coding.

    Understands the comma list and ``;q=`` weights just enough to honour an
    explicit opt-out (``deflate;q=0``); anything unparsable reads as "no",
    so a garbled header degrades to identity, never to a broken body.
    """
    accept = headers.get("accept-encoding", "")
    for part in accept.split(","):
        coding, _, params = part.partition(";")
        if coding.strip().lower() != CONTENT_ENCODING_DEFLATE:
            continue
        q = params.replace(" ", "").lower()
        if q.startswith("q="):
            try:
                return float(q[2:]) > 0.0
            except ValueError:
                return False
        return True
    return False


def negotiate_encoding(
    headers: Dict[str, str], body: bytes
) -> Tuple[bytes, Optional[str]]:
    """Deflate *body* when the request asked for it and it actually pays.

    Returns ``(body, None)`` untouched unless the request advertises
    ``deflate``, the identity body clears :data:`MIN_COMPRESS_BYTES`, and
    compression genuinely shrinks it — a response must never grow because
    the client offered an encoding.
    """
    if len(body) < MIN_COMPRESS_BYTES or not accepts_deflate(headers):
        return body, None
    compressed = zlib.compress(body, COMPRESS_LEVEL)
    if len(compressed) >= len(body):
        return body, None
    return compressed, CONTENT_ENCODING_DEFLATE


def inflate_body(body: bytes, source: str = "response") -> bytes:
    """Reverse :func:`negotiate_encoding` on the client side.

    A body that does not inflate is a malformed response —
    :class:`ProtocolError`, typed like every other wire violation.
    """
    try:
        return zlib.decompress(body)
    except zlib.error as exc:
        raise ProtocolError(f"undecodable deflate {source}: {exc}") from exc


def is_url(path: object) -> bool:
    """Whether *path* is an HTTP(S) URL rather than a filesystem path.

    Checked against the raw string: ``pathlib`` would collapse ``//`` and
    destroy the scheme, so callers must test *before* any ``Path(...)``.
    """
    return isinstance(path, str) and path.startswith(("http://", "https://"))


def split_replica_urls(source: Union[str, Sequence[str]]) -> List[str]:
    """Normalize a replica spec into a list of base URLs.

    Accepts one URL, a comma-separated URL list (the CLI/env spelling:
    ``http://a:1,http://b:2``), or a sequence of URLs.  Returns ``[]`` when
    *source* is not URL-shaped at all, so callers can use it as the
    dispatch test; raises :class:`~repro.errors.ServerError` when a
    *mixed* spec names both URLs and non-URLs (silently dropping entries
    would route reads to fewer replicas than the caller listed).
    """
    if isinstance(source, str):
        parts = [part.strip() for part in source.split(",") if part.strip()]
    elif isinstance(source, (list, tuple)):
        parts = [str(part).strip() for part in source]
    else:
        return []
    if not parts or not any(is_url(part) for part in parts):
        return []
    bad = [part for part in parts if not is_url(part)]
    if bad:
        raise ServerError(f"replica list mixes URLs with non-URLs: {bad!r}")
    return parts
