"""Removed options stay removed.

One block read path: every block is read at its footer offset (``os.pread``
for a shard the reader opened, ``seek`` + ``read`` for a caller's file
object) and its CRC-32 is always checked.  The memory-map read path and the
switch that skipped the check are gone from the store up to the CLI, and so
is the CLI's in-process timing command.

One fleet topology: every fleet worker binds the shared port with
``SO_REUSEPORT``.  Gone are the parent-process proxy, the option that chose
it, the fleet's ``mode`` and ready timeout, the server's port-sharing
switch and registry argument, and the engine backends' cumulative tally.

These tests pin the removals: a removed keyword is a ``TypeError`` at every
tier, a removed attribute is absent, and a removed flag or command is an
argument error (exit status 2).  The removed names are spelled in two
pieces, so a search of the tree for them finds no live use.
"""

from __future__ import annotations

import pytest

import repro.engine
from repro.cli import build_parser, main
from repro.core.codec import ZSmilesCodec
from repro.engine import KernelBackend
from repro.library import AsyncCorpusLibrary, CorpusLibrary, open_async_reader
from repro.server import BackgroundServer, CorpusServer, ServerFleet
from repro.server.app import serve
from repro.store import ShardReader
from repro.telemetry.metrics import MetricsRegistry

from .fixtures.regenerate import FIXTURES

SHARD = FIXTURES / "corpus.zss"
MMAP = "use_" "mmap"
CHECKSUMS = "verify_" "checksums"
PREFER_REUSE_PORT = "prefer_" "reuse_port"
READY_TIMEOUT = "ready_" "timeout"
REUSE_PORT = "reuse" "_port"
BACKEND_STATS = "Backend" "Stats"


@pytest.mark.parametrize(
    "opener, option",
    [
        (ShardReader, MMAP),
        (ShardReader, CHECKSUMS),
        (CorpusLibrary.open, MMAP),
        (CorpusLibrary.open, CHECKSUMS),
        (AsyncCorpusLibrary.open, MMAP),
        (AsyncCorpusLibrary.open, CHECKSUMS),
        (open_async_reader, MMAP),
        (BackgroundServer, MMAP),
        (ServerFleet, MMAP),
    ],
    ids=lambda value: getattr(value, "__qualname__", value),
)
def test_removed_option_is_a_type_error(opener, option):
    value = option == MMAP  # the non-default value of each option
    with pytest.raises(TypeError, match=option):
        opener(SHARD, **{option: value})


def test_query_map_flag_is_an_argument_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["query", str(SHARD), "0", "--" "mmap"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["serve", str(SHARD), "--" "mmap"], ["serve" "-bench", str(SHARD)]],
    ids=["serve-map-flag", "timing-command"],
)
def test_removed_serve_surface_is_an_argument_error(argv):
    # Parsed only: at a tree that still accepts them, ``serve`` would start
    # serving instead of failing.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2


def _corpus_server(source, **options):
    library = AsyncCorpusLibrary.open(source)
    try:
        return CorpusServer(library, **options)
    finally:
        library.close()


def _serve(source, **options):
    return serve(source, None, None, **options)


@pytest.mark.parametrize(
    "build, option, value",
    [
        (ServerFleet, PREFER_REUSE_PORT, False),
        (ServerFleet, READY_TIMEOUT, 1),
        (_corpus_server, "registry", MetricsRegistry()),
        (_corpus_server, REUSE_PORT, True),
        (_serve, REUSE_PORT, True),
    ],
    ids=[
        "fleet-prefer-reuse-port", "fleet-ready-timeout", "server-registry",
        "server-reuse-port", "serve-reuse-port",
    ],
)
def test_removed_fleet_option_is_a_type_error(build, option, value):
    with pytest.raises(TypeError, match=option):
        build(SHARD, **{option: value})


def test_started_fleet_has_no_mode():
    with ServerFleet(SHARD, workers=1) as fleet:
        assert not hasattr(fleet, "mode")


def test_engine_keeps_no_backend_tally():
    assert not hasattr(repro.engine, BACKEND_STATS)
    codec = ZSmilesCodec.from_dictionary(FIXTURES / "golden.dct", preprocessing=False)
    assert not hasattr(KernelBackend(codec), "stats")
