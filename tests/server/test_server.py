"""Loopback round-trip parity: the server serves exactly what the library holds.

The acceptance bar of the serving front: every record fetched through
:class:`CorpusClient` — single, batch, and streamed range — is byte-identical
to a direct :meth:`CorpusLibrary.get` over both a multi-shard generated
corpus and the pinned golden fixtures.
"""

from __future__ import annotations

import pytest

from repro.library import CorpusLibrary
from repro.server import BackgroundServer, CorpusClient
from repro.store import open_reader


class TestHealthAndStats:
    def test_healthz(self, client, corpus):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["records"] == len(corpus)

    def test_stats_shape(self, client, corpus):
        stats = client.stats()
        assert stats["records"] == len(corpus)
        assert stats["shards"] == 3
        assert stats["pool_size"] == 3
        assert set(stats["cache"]) == {
            "hits",
            "misses",
            "capacity",
            "cached_blocks",
            "evictions",
            "hit_rate",
        }
        assert stats["manifest"]["total_records"] == len(corpus)
        assert stats["counters"]["requests"] >= 1

    def test_len_comes_from_stats(self, client, corpus):
        assert len(client) == len(corpus)

    def test_stats_counts_requests_and_cache_traffic(self, library_dir):
        """A fresh server starts at zero and tallies what it serves."""
        with BackgroundServer(library_dir, readers=2) as server:
            with CorpusClient(server.url) as client:
                before = client.stats()["counters"]
                assert before["single"] == 0 and before["batch"] == 0
                client.get(0)
                client.get(1)
                client.get_many([2, 3, 4])
                after = client.stats()["counters"]
                assert after["single"] == 2
                assert after["batch"] == 1
                assert after["records_served"] == 5
                cache = client.stats()["cache"]
                # Five records out of blocks of 8: some block was re-used.
                assert cache["hits"] + cache["misses"] >= 2


class TestRoundTripParity:
    def test_single_get_parity_every_record(self, client, library_dir, corpus):
        with CorpusLibrary.open(library_dir) as direct:
            for index in range(len(corpus)):
                assert client.get(index) == direct.get(index)

    def test_batch_parity(self, client, library_dir, corpus):
        indices = [0, 119, 7, 63, 64, 1, 40, 40]  # cross-shard, duplicates, ends
        with CorpusLibrary.open(library_dir) as direct:
            assert client.get_many(indices) == direct.get_many(indices)

    def test_empty_batch(self, client):
        assert client.get_many([]) == []

    def test_stream_full_range_parity(self, client, library_dir, corpus):
        with CorpusLibrary.open(library_dir) as direct:
            assert list(client.iter_all()) == list(direct.iter_all())

    def test_stream_sub_range_crosses_shards(self, client, library_dir):
        # 3 shards x 40 records: [35, 85) spans all three.
        with CorpusLibrary.open(library_dir) as direct:
            assert client.slice(35, 85) == direct.slice(35, 85)

    def test_stream_unterminated_stop_clamped(self, client, corpus):
        assert client.slice(110, 10_000) == client.slice(110, len(corpus))

    def test_record_reader_aliases(self, client):
        assert client[9] == client.get(9)


class TestGoldenFixtureParity:
    """The pinned `.zss` bytes served over the wire, byte for byte."""

    @pytest.fixture(scope="class")
    def golden_server(self):
        from tests.fixtures.regenerate import FIXTURES

        with BackgroundServer(FIXTURES / "corpus.zss", readers=2) as server:
            yield server

    def test_every_golden_record_round_trips(self, golden_server):
        from tests.fixtures.regenerate import FIXTURES

        with CorpusLibrary.open(FIXTURES / "corpus.zss") as direct:
            with CorpusClient(golden_server.url) as client:
                assert len(client) == len(direct)
                for index in range(len(direct)):
                    assert client.get(index) == direct.get(index)
                assert list(client.iter_all()) == list(direct.iter_all())


class TestOpenReaderDispatch:
    def test_open_reader_serves_urls(self, server, library_dir):
        with CorpusLibrary.open(library_dir) as direct:
            with open_reader(server.url) as reader:
                assert isinstance(reader, CorpusClient)
                assert len(reader) == len(direct)
                assert reader.get(42) == direct.get(42)
                assert reader.get_many([3, 99]) == direct.get_many([3, 99])
                assert reader.slice(10, 20) == direct.slice(10, 20)

    def test_screening_campaign_over_url(self, server, library_dir, plain_codec):
        from repro.screening.pipeline import ScreeningCampaign

        campaign = ScreeningCampaign(plain_codec, top_k=5)
        remote = campaign.run(server.url, sample=20, seed=3)
        local = campaign.run(library_dir, sample=20, seed=3)
        assert remote.sampled_indices == local.sampled_indices
        assert remote.pocket_results == local.pocket_results

    def test_screening_fetch_hit_over_url(self, server, library_dir, plain_codec):
        from repro.screening.pipeline import ScreeningCampaign

        campaign = ScreeningCampaign(plain_codec, top_k=5)
        assert campaign.fetch_hit(server.url, 17) == campaign.fetch_hit(library_dir, 17)

    def test_datasets_io_reads_url(self, server, corpus):
        from repro.datasets.io import read_smiles

        # The server decodes with the embedded dictionary; plain_codec did
        # no preprocessing, so the wire records are the corpus itself.
        assert read_smiles(server.url) == [s.split()[0] for s in corpus]


class TestConnectionBehaviour:
    def test_keep_alive_reuses_one_connection(self, client):
        client.get(0)
        conn = client._conn
        client.get(1)
        client.get_many([2, 3])
        assert client._conn is conn  # same socket across calls

    def test_client_survives_reconnect_after_close(self, client):
        client.get(0)
        client.close()
        assert client.get(1)  # transparently reopened

    def test_one_client_shared_across_threads(self, server, library_dir):
        """One CorpusClient hammered from many threads serves correct bytes.

        Unit requests serialize over the shared keep-alive socket behind the
        client's lock (the remote analogue of ShardReader's I/O lock), and a
        concurrent stream rides its own dedicated connection.
        """
        import threading

        with CorpusLibrary.open(library_dir) as direct:
            expected = list(direct.iter_all())
        with CorpusClient(server.url) as shared:
            errors: list = []

            def hammer(offset: int) -> None:
                try:
                    for step in range(30):
                        index = (step * 7 + offset) % len(expected)
                        assert shared.get(index) == expected[index]
                    assert shared.get_many([offset, offset + 1]) == expected[
                        offset : offset + 2
                    ]
                    assert shared.slice(offset, offset + 20) == expected[
                        offset : offset + 20
                    ]
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors

    def test_abandoned_stream_does_not_poison_unit_requests(self, client, corpus):
        stream = client.iter_range(0, len(corpus))
        assert next(stream)  # consume one record, then abandon the generator
        assert client.get(3)  # shared keep-alive socket unaffected
        stream.close()
        assert client.get(4)

    def test_concurrent_clients_see_identical_bytes(self, server, library_dir):
        import threading

        with CorpusLibrary.open(library_dir) as direct:
            expected = [direct.get(i) for i in range(40)]
        results: dict = {}

        def worker(slot: int) -> None:
            with CorpusClient(server.url) as cli:
                results[slot] = [cli.get(i) for i in range(40)]

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(results[slot] == expected for slot in range(8))
