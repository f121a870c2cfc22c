"""The sync and async failover clients make the same decisions.

Both run :class:`repro.server.wire.Failover`; these pin what that shares:
the rotation and failover counters move alike over a dead and a live
replica, and a range stream cut part-way on one replica and finished on the
other carries one request id in both servers' access logs.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.faults import ConnectionFault, ConnectionFaultPlan, FaultyProxy
from repro.server import AsyncFailoverCorpusClient, BackgroundServer, FailoverCorpusClient
from repro.telemetry import metrics as _metrics

COUNTERS = ("zsmiles_client_rotations_total", "zsmiles_client_failovers_total")


def _dead_url() -> str:
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


def _counters():
    registry = _metrics.get_registry()
    return {name: registry.counter(name).value for name in COUNTERS}


def _sync_run(urls, corpus):
    with FailoverCorpusClient(urls, timeout=5.0) as client:
        for i in range(4):
            assert client.get(i) == corpus[i]
        assert client.get_many([0, 5]) == [corpus[0], corpus[5]]
        assert client.sample(3, seed=1)[1]
        assert list(client.iter_range(0, 20)) == list(corpus[:20])
        assert len(client) == len(corpus)


def _async_run(urls, corpus):
    async def run():
        async with AsyncFailoverCorpusClient(urls, timeout=5.0) as client:
            for i in range(4):
                assert await client.get(i) == corpus[i]
            assert await client.get_many([0, 5]) == [corpus[0], corpus[5]]
            assert (await client.sample(3, seed=1))[1]
            assert await client.slice(0, 20) == list(corpus[:20])
            assert await client.total() == len(corpus)

    asyncio.run(run())


def _deltas(run, urls, corpus):
    before = _counters()
    run(urls, corpus)
    after = _counters()
    return {name: after[name] - before[name] for name in COUNTERS}


def test_sync_and_async_count_rotations_and_failovers_alike(server, corpus):
    urls = [_dead_url(), server.url]
    sync = _deltas(_sync_run, urls, corpus)
    async_ = _deltas(_async_run, urls, corpus)
    assert sync == async_
    # Eight calls, each its own rotation; the dead replica comes first for
    # every other call, which fails over once.
    assert sync == {COUNTERS[0]: 8, COUNTERS[1]: 4}


def _stream_entries(log_path, timeout: float = 10.0):
    """The stream entries of an access log, once one has landed (the cut
    replica logs when its write fails, maybe after the client finished)."""
    deadline = time.monotonic() + timeout
    while True:
        entries = [json.loads(line) for line in log_path.read_text().splitlines() if line]
        streams = [entry for entry in entries if entry["route"] == "stream"]
        if streams or time.monotonic() > deadline:
            return streams
        time.sleep(0.05)


@pytest.mark.parametrize("flavour", ["sync", "async"])
def test_resumed_stream_keeps_one_request_id(library_dir, corpus, tmp_path, flavour):
    cut_log, clean_log = tmp_path / "cut.jsonl", tmp_path / "clean.jsonl"
    plan = ConnectionFaultPlan([ConnectionFault(connection=0, kind="drop", arg=600.0)])
    with BackgroundServer(library_dir, readers=2, stream_batch=16, access_log=str(cut_log)) as cut, \
            BackgroundServer(library_dir, readers=2, access_log=str(clean_log)) as clean, \
            FaultyProxy(cut.url, plan) as proxy:
        urls = [proxy.url, clean.url]
        if flavour == "sync":
            with FailoverCorpusClient(urls, timeout=5.0, compress=False) as client:
                received = list(client.iter_range(0, len(corpus)))
        else:
            async def run():
                async with AsyncFailoverCorpusClient(urls, timeout=5.0, compress=False) as client:
                    return await client.slice(0, len(corpus))

            received = asyncio.run(run())
        assert received == list(corpus)
        assert proxy.faults_injected == 1
        cut_entries, clean_entries = _stream_entries(cut_log), _stream_entries(clean_log)
    assert len(cut_entries) == len(clean_entries) == 1
    assert cut_entries[0]["request_id"] == clean_entries[0]["request_id"]
    # The clean replica served only the remainder: the cut was part-way.
    assert 0 < clean_entries[0]["bytes"] < sum(len(record) + 1 for record in corpus)
