"""The degraded-read guarantee.

One corrupt block of an N-block shard must leave every record outside that
block readable locally, and *all* records readable through a failover
client backed by a clean replica.  Quarantine counters surface everywhere
the stats do: reader, library, the server's ``/stats`` payload, and
``zsmiles query --verbose``.
"""

from __future__ import annotations

import shutil

import pytest

from repro.cli import main as cli_main
from repro.engine import ZSmilesEngine
from repro.errors import BlockCorruptionError
from repro.library import CorpusLibrary, pack_library
from repro.server import BackgroundServer, CorpusClient, FailoverCorpusClient
from repro.store import ShardReader, pack_records
from repro.store.format import read_footer

RECORDS_PER_BLOCK = 8


@pytest.fixture(scope="module")
def corpus(mixed_corpus_small):
    return mixed_corpus_small[:120]


@pytest.fixture(scope="module")
def engine(plain_codec):
    with ZSmilesEngine.from_codec(plain_codec, backend="serial") as eng:
        yield eng


@pytest.fixture(scope="module")
def pristine_library(tmp_path_factory, corpus, engine):
    directory = tmp_path_factory.mktemp("degraded_lib") / "corpus.library"
    pack_library(directory, corpus, engine, shards=3, records_per_block=RECORDS_PER_BLOCK)
    return directory


def _corrupt_block(shard, block_number):
    """Flip a byte in the middle of one block's payload."""
    with open(shard, "rb") as handle:
        block = read_footer(handle).blocks[block_number]
    data = bytearray(shard.read_bytes())
    data[block.offset + block.length // 2] ^= 0xFF
    shard.write_bytes(bytes(data))
    return block


@pytest.fixture()
def damaged_shard(tmp_path, corpus, engine):
    """A 5-block single shard with block 2 corrupted."""
    path = tmp_path / "damaged.zss"
    pack_records(path, corpus[:40], engine, records_per_block=RECORDS_PER_BLOCK)
    _corrupt_block(path, 2)
    return path


@pytest.fixture()
def damaged_library(pristine_library, tmp_path):
    """A 3-shard library copy with block 1 of the first shard corrupted."""
    target = tmp_path / "damaged.library"
    shutil.copytree(pristine_library, target)
    _corrupt_block(sorted(target.glob("*.zss"))[0], 1)
    return target


class TestLocalDegradedReads:
    def test_every_record_outside_the_bad_block_reads(
        self, damaged_shard, corpus
    ):
        bad = range(2 * RECORDS_PER_BLOCK, 3 * RECORDS_PER_BLOCK)
        with ShardReader(damaged_shard) as reader:
            for index in range(40):
                if index in bad:
                    with pytest.raises(BlockCorruptionError) as excinfo:
                        reader.get(index)
                    assert excinfo.value.block == 2
                    assert str(damaged_shard) in str(excinfo.value.shard_path)
                else:
                    assert reader.get(index) == corpus[index]
            stats = reader.quarantine_stats()
            assert stats["quarantined_blocks"] == 1
            # 8 bad reads: the first quarantines, the rest fail fast.
            assert stats["quarantine_hits"] == RECORDS_PER_BLOCK - 1

    def test_library_facade_serves_around_the_bad_block(
        self, damaged_library, corpus
    ):
        with CorpusLibrary.open(damaged_library) as library:
            served, refused = 0, 0
            for index in range(len(corpus)):
                try:
                    assert library.get(index) == corpus[index]
                    served += 1
                except BlockCorruptionError:
                    refused += 1
            assert refused == RECORDS_PER_BLOCK
            assert served == len(corpus) - RECORDS_PER_BLOCK
            stats = library.quarantine_stats()
            assert stats["quarantined_blocks"] == 1
            assert stats["quarantine_hits"] == RECORDS_PER_BLOCK - 1
            assert list(stats["shards"].values()) == [[1]]


class TestFailoverHealsDegradedReads:
    def test_all_records_readable_via_failover_to_clean_replica(
        self, damaged_library, pristine_library, corpus
    ):
        with BackgroundServer(damaged_library, readers=2) as shaky:
            with BackgroundServer(pristine_library, readers=2) as clean:
                with FailoverCorpusClient(
                    [shaky.url, clean.url], timeout=10.0
                ) as client:
                    # Every record — including the quarantined block's —
                    # arrives byte-identical: reads of the bad range fail
                    # over to the replica holding clean bytes.
                    assert [client.get(i) for i in range(len(corpus))] == corpus
                    assert list(client.iter_range(0, len(corpus))) == corpus

    def test_direct_client_gets_typed_corruption_error(self, damaged_library):
        with BackgroundServer(damaged_library, readers=2) as server:
            with CorpusClient(server.url, timeout=10.0) as client:
                with pytest.raises(BlockCorruptionError):
                    client.get(1 * RECORDS_PER_BLOCK)  # inside the bad block

    def test_quarantine_counters_surface_in_stats_payload(
        self, damaged_library
    ):
        with BackgroundServer(damaged_library, readers=2) as server:
            with CorpusClient(server.url, timeout=10.0) as client:
                with pytest.raises(BlockCorruptionError):
                    client.get(1 * RECORDS_PER_BLOCK)
                quarantine = client.stats()["quarantine"]
                assert quarantine["quarantined_blocks"] == 1
                assert quarantine["shards"]
                # Fail-fast hits count up as the bad block keeps being asked.
                with pytest.raises(BlockCorruptionError):
                    client.get(1 * RECORDS_PER_BLOCK + 1)
                assert client.stats()["quarantine"]["quarantine_hits"] >= 1


class TestCliSurface:
    def test_query_verbose_reports_quarantine_counters(
        self, damaged_library, corpus, capsys
    ):
        # Reads outside the bad block succeed; --verbose surfaces the
        # (empty, so far) quarantine alongside the cache counters.
        exit_code = cli_main(
            ["query", str(damaged_library), "40", "41", "--verbose"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.splitlines() == [corpus[40], corpus[41]]
        assert "quarantine: 0 blocks, 0 hits" in captured.err

    def test_query_of_corrupt_block_raises_typed_error(self, damaged_library, capsys):
        assert cli_main(["query", str(damaged_library), str(RECORDS_PER_BLOCK)]) == 1
        assert "checksum mismatch" in capsys.readouterr().err

    def test_fsck_cli_detects_and_repairs(
        self, damaged_library, pristine_library, capsys
    ):
        assert cli_main(["fsck", str(damaged_library)]) == 1
        assert "CORRUPT" in capsys.readouterr().out
        assert (
            cli_main(
                [
                    "fsck",
                    str(damaged_library),
                    "--repair",
                    "--replica",
                    str(pristine_library),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "repaired" in captured.out
        assert "clean" in captured.out
        assert cli_main(["fsck", str(damaged_library)]) == 0
