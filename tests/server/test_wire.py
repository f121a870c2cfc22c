"""The one HTTP/1.1 parser, fuzzed: every byte stream ends typed, split-free.

:class:`repro.server.wire.Parser` reads every request the server gets and
every response the clients and the fleet's peer scrape get, so these
properties cover all of them:

* any request or response byte stream, split anywhere, ends as parsed
  messages followed by a clean close or a typed
  :class:`~repro.errors.ProtocolError` — "need more data" only while the
  input is still open, and no other exception;
* the outcome does not depend on where the bytes were split;
* whatever the encoder writes, the parser reads back unchanged.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server import wire

# Fragments that steer random streams into the parser's deeper states.
REQUEST_FRAGMENTS = [
    b"GET /records/1 HTTP/1.1\r\n", b"POST /records:batch HTTP/1.1\r\n",
    b"GET / HTTP/1.0\n", b"HEAD / HTTP/1.1\r\n", b"GET /x HTTP/2\r\n",
    b"Host: a\r\n", b"Content-Length: 3\r\n", b"Content-Length: +3\r\n",
    b"Content-Length: 1_0\r\n", b"Content-Length: 99999999999999999999\r\n",
    b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n", b"X-A:\tb \r\n",
    b"Bad Header: x\r\n", b"NoColon\r\n", b"X: a\rb\r\n", b"\r\n", b"\n", b"abc", b"{}",
]
REQUEST_HEADS = [
    b"", b"GET /records/1 HTTP/1.1\r\nHost: a\r\n\r\n",
    b"POST /records:batch HTTP/1.1\r\nContent-Length: 4\r\n\r\n",
]
RESPONSE_HEADS = [
    b"", b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n", b"HTTP/1.1 200 OK\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
]
RESPONSE_FRAGMENTS = [
    b"HTTP/1.1 200 OK\r\n", b"HTTP/1.1 404 Not Found\r\n", b"HTTP/1.0 503\r\n",
    b"HTTP/1.1 2\r\n", b"ICY 200 OK\r\n", b"Content-Length: 4\r\n",
    b"Content-Length: 0x4\r\n", b"Transfer-Encoding: chunked\r\n",
    b"Connection: close\r\n", b"4\r\n", b"0\r\n", b"0x4\r\n", b"+4\r\n", b"abcd",
    b"Trailer-Field: 1\r\n", b"\r\n", b"\n", b"REC\n",
]


def _streams(heads: List[bytes], fragments: List[bytes]):
    """A valid head (or none) and then anything, so every state is reached."""
    piece = st.one_of(st.sampled_from(fragments), st.binary(max_size=12))
    rest = st.lists(piece, max_size=24).map(b"".join)
    return st.tuples(st.sampled_from(heads), rest).map(b"".join)


def _outcome(requests: bool, data: bytes, cuts: List[int]) -> Tuple[list, object]:
    """Feed *data* split at *cuts*, then the close; the messages parsed and
    how the stream ended ("closed" or the ProtocolError's type and text)."""
    parser = wire.Parser(requests=requests)
    bounds = [0] + sorted(min(cut, len(data)) for cut in cuts) + [len(data)]
    pieces = [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a] + [b""]
    messages = []
    for piece in pieces:
        parser.feed(piece)
        while True:
            try:
                message = parser.next_message()
            except ProtocolError as exc:
                return messages, (type(exc).__name__, str(exc))
            if message is wire.Event.NEED_DATA:
                assert piece, "the parser asked for more data after the input closed"
                break
            if message is wire.Event.CLOSED:
                return messages, "closed"
            messages.append((message.method, message.target, message.status,
                             dict(message.headers), message.body))
    raise AssertionError("the input closed without a final outcome")


@pytest.mark.parametrize("requests, heads, fragments", [
    (True, REQUEST_HEADS, REQUEST_FRAGMENTS), (False, RESPONSE_HEADS, RESPONSE_FRAGMENTS),
], ids=["requests", "responses"])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_stream_ends_typed_whatever_the_split(requests, heads, fragments, data):
    stream = data.draw(_streams(heads, fragments), label="stream")
    cuts = data.draw(st.lists(st.integers(0, max(len(stream), 1)), max_size=8), label="cuts")
    assert _outcome(requests, stream, cuts) == _outcome(requests, stream, [])


def test_known_framing_errors_are_typed():
    cases = [
        (True, b"POST /a HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc"),
        (True, b"GET /a HTTP/1.1\r\n" + b"X: y\r\n" * 101 + b"\r\n"),
        (True, b"GET /" + b"a" * (wire.MAX_LINE_BYTES + 1)),
        (True, b"POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"),
        (True, b"POST /a HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: gzip\r\n\r\nabc"),
        (False, b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x4\r\nabcd\r\n0\r\n\r\n"),
        (False, b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcdXY\r\n"),
    ]
    for requests, stream in cases:
        _, end = _outcome(requests, stream, [])
        assert end[0] == "ProtocolError", (stream[:60], end)
    # A message cut short is the typed "peer went away" subclass.
    _, end = _outcome(False, b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc", [])
    assert end[0] == "IncompleteMessage"


_tokens = st.text("abcdefghijklmnopqrstuvwxyz0123456789-!#$%&'*+.^_`|~", min_size=1, max_size=12)
_values = st.text(st.characters(min_codepoint=0x21, max_codepoint=0xFF, blacklist_characters="\x7f"),
                  max_size=16).flatmap(
    lambda edge: st.just(edge) if len(edge) < 2 else st.sampled_from([edge, edge[0] + " \t " + edge[1:]])
)
_headers = st.dictionaries(
    _tokens.filter(lambda name: name not in ("content-length", "transfer-encoding")), _values, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(
    method=st.sampled_from(wire.REQUEST_METHODS),
    target=st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=40),
    headers=_headers,
    body=st.one_of(st.none(), st.binary(max_size=64)),
)
def test_request_round_trip(method, target, headers, body):
    parser = wire.Parser(requests=True)
    parser.feed(wire.encode_request(method, target, headers, body))
    message = parser.next_message()
    expected = {name.lower(): value for name, value in headers.items()}
    if body is not None:
        expected["content-length"] = str(len(body))
    assert message == wire.Head(method=method, target=target, headers=expected, body=body or b"")
    assert parser.idle


@settings(max_examples=200, deadline=None)
@given(
    status=st.integers(100, 599),
    headers=_headers,
    chunks=st.lists(st.binary(min_size=1, max_size=40), max_size=5),
    chunked=st.booleans(),
)
def test_response_round_trip(status, headers, chunks, chunked):
    body = b"".join(chunks)
    fields = list(headers.items())
    if chunked:
        fields.append(("Transfer-Encoding", "chunked"))
        encoded = wire.encode_response(status, fields) + b"".join(
            wire.encode_chunk(chunk) for chunk in chunks + [b""]
        )
    else:
        fields.append(("Content-Length", str(len(body))))
        encoded = wire.encode_response(status, fields, body)
    parser = wire.Parser()
    parser.feed(encoded)
    message = parser.next_message()
    expected = {name.lower(): value for name, value in fields}
    assert message == wire.Head(status=status, headers=expected, body=body)
    assert parser.idle


@pytest.mark.parametrize("length, chunked", [(5, False), (None, True)])
def test_protocol_response_head_round_trips(length, chunked):
    head = wire.response_head(
        200, "text/plain; charset=utf-8", length, "deflate", "abc123", keep_alive=True
    )
    parser = wire.Parser()
    parser.feed(head + (b"hello" if length else wire.encode_chunk(b"")))
    message = parser.next_message()
    assert message.status == 200 and message.keep_alive
    assert message.content_encoding == "deflate"
    assert message.headers["x-request-id"] == "abc123"
    assert ("transfer-encoding" in message.headers) is chunked


@pytest.mark.parametrize("name, value", [("Bad Name", "x"), ("X", "a\r\nY: b"), ("X", " padded")])
def test_encoder_refuses_what_the_parser_would_not_read_back(name, value):
    with pytest.raises(ProtocolError):
        wire.encode_request("GET", "/", {name: value})
