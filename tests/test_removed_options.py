"""One block read path: no reader tier takes a read-path option any more.

Every block is read at its footer offset (``os.pread`` for a shard the reader
opened, ``seek`` + ``read`` for a caller's file object) and its CRC-32 is
always checked.  The memory-map read path and the switch that skipped the
check are gone from the store up to the CLI, and so is the CLI's in-process
timing command.  These tests pin the removals: a removed keyword is a
``TypeError`` at every tier, and a removed flag or command is an argument
error (exit status 2).  The removed names are spelled in two pieces, so a
search of the tree for them finds no live use.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.library import AsyncCorpusLibrary, CorpusLibrary, open_async_reader
from repro.server import BackgroundServer, ServerFleet
from repro.store import ShardReader

from .fixtures.regenerate import FIXTURES

SHARD = FIXTURES / "corpus.zss"
MMAP = "use_" "mmap"
CHECKSUMS = "verify_" "checksums"


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
