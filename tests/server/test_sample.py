"""``GET /records:sample`` — uniform, seedable, clamped, typed failures."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import (
    MAX_SAMPLE_RECORDS,
    parse_sample_query,
    sample_payload,
)


class TestParseSampleQuery:
    def test_n_required(self):
        with pytest.raises(ProtocolError):
            parse_sample_query({}, total=10)

    def test_n_must_be_integer(self):
        with pytest.raises(ProtocolError):
            parse_sample_query({"n": "three"}, total=10)

    def test_n_must_be_non_negative(self):
        with pytest.raises(ProtocolError):
            parse_sample_query({"n": "-1"}, total=10)

    def test_n_capped(self):
        with pytest.raises(ProtocolError):
            parse_sample_query({"n": str(MAX_SAMPLE_RECORDS + 1)}, total=10)

    def test_n_clamped_to_total(self):
        assert parse_sample_query({"n": "50"}, total=10) == (10, None)

    def test_seed_optional_integer(self):
        assert parse_sample_query({"n": "3", "seed": "42"}, total=10) == (3, 42)
        with pytest.raises(ProtocolError):
            parse_sample_query({"n": "3", "seed": "x"}, total=10)

    def test_payload_shape(self):
        payload = sample_payload([1, 3], ["C", "N"], total=9, seed=7)
        assert payload == {
            "indices": [1, 3],
            "records": ["C", "N"],
            "total": 9,
            "seed": 7,
        }


class TestSampleEndpoint:
    def test_records_match_their_indices(self, client, corpus):
        indices, records = client.sample(10, seed=1)
        assert len(indices) == len(records) == 10
        assert indices == sorted(indices)
        assert len(set(indices)) == 10, "sampling is without replacement"
        for index, record in zip(indices, records):
            assert record == corpus[index]

    def test_seed_makes_draw_deterministic(self, client):
        assert client.sample(7, seed=99) == client.sample(7, seed=99)
        # A different seed virtually always draws a different subset.
        assert client.sample(7, seed=99) != client.sample(7, seed=100)

    def test_unseeded_draws_are_valid(self, client, corpus):
        indices, records = client.sample(5)
        assert len(indices) == 5
        for index, record in zip(indices, records):
            assert record == corpus[index]

    def test_n_clamped_to_corpus(self, client, corpus):
        indices, records = client.sample(10_000, seed=0)
        assert len(records) == len(corpus)
        assert indices == list(range(len(corpus)))

    def test_zero_sample_is_empty(self, client):
        assert client.sample(0, seed=1) == ([], [])

    def test_sample_caches_total(self, client, corpus):
        client.sample(1, seed=0)
        assert len(client) == len(corpus)

    def test_bad_n_raises_protocol_error(self, client, server):
        import urllib.error
        import urllib.request

        url = f"{server.url}{protocol.ROUTE_SAMPLE}?n=oops"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url)
        with excinfo.value:  # the error is the response: close its socket
            assert excinfo.value.code == 400

    def test_missing_n_raises_protocol_error(self, client, server):
        import urllib.error
        import urllib.request

        url = f"{server.url}{protocol.ROUTE_SAMPLE}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url)
        with excinfo.value:  # the error is the response: close its socket
            assert excinfo.value.code == 400

    def test_post_not_allowed(self, client, server):
        import urllib.error
        import urllib.request

        url = f"{server.url}{protocol.ROUTE_SAMPLE}?n=1"
        request = urllib.request.Request(url, data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value:  # the error is the response: close its socket
            assert excinfo.value.code == 400

    def test_sample_matches_local_reader_semantics(self, client, library_dir):
        """Transport parity: the server's draw is the local ``sample()``.

        A consumer sampling through ``open_reader`` must get the same
        records for the same ``(n, seed)`` whether the URL points at a
        local library or an HTTP replica — the campaign driver's resume
        determinism rides on this.
        """
        from repro.library import CorpusLibrary

        with CorpusLibrary.open(library_dir) as library:
            for n, seed in [(5, 0), (12, 99), (1, 7), (10_000, 3)]:
                assert client.sample(n, seed=seed) == library.sample(n, seed=seed)

    def test_stats_serve_dictionary_identity(self, client, library_dir):
        """/stats names the dictionary the library was packed with."""
        from repro.library import CorpusLibrary

        stats = client.stats()
        with CorpusLibrary.open(library_dir) as library:
            identity = library.dictionary_identity()
        assert stats["dictionary"]["hash"] == identity.hash
        assert stats["dictionary"]["entries"] == identity.entries

    def test_sample_counter_tallies(self, library_dir):
        from repro.server import BackgroundServer, CorpusClient

        with BackgroundServer(library_dir, readers=2) as server:
            with CorpusClient(server.url) as client:
                assert client.stats()["counters"]["sample"] == 0
                client.sample(3, seed=5)
                after = client.stats()["counters"]
                assert after["sample"] == 1
                assert after["records_served"] >= 3
