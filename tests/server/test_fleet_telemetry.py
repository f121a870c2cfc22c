"""Fleet-wide observability: one scrape sees every worker.

The SO_REUSEPORT fleet used to answer ``/stats`` from whichever worker
took the connection — a 2-worker fleet reported roughly half its own
traffic.  These tests pin the fix: workers exchange admin ports at startup
and the answering worker merges every live peer's snapshot, so ``/stats``
and ``/metrics`` are deterministic regardless of which worker the kernel
picks.
"""

from __future__ import annotations

import json

from repro.server import CorpusClient, ServerFleet


def _spread_singles(url: str, indices) -> None:
    """One fresh connection per get, so the fleet spreads them over workers."""
    for index in indices:
        with CorpusClient(url, timeout=10.0) as client:
            client.get(index)


def _singles_per_worker(fleet: ServerFleet, count: int) -> None:
    """*count* gets to every worker, each through that worker's admin port."""
    for port in fleet.admin_ports:
        with CorpusClient(f"http://127.0.0.1:{port}", timeout=10.0) as client:
            for index in range(count):
                client.get(index)


class TestProxyFleetAggregation:
    """Gets sent through each worker's admin port, so both workers serve."""

    def test_stats_sees_both_workers_traffic(self, library_dir, corpus):
        with ServerFleet(library_dir, workers=2, readers=2) as fleet:
            assert len(fleet.admin_ports) == 2
            _singles_per_worker(fleet, 3)
            with CorpusClient(fleet.url, timeout=10.0) as client:
                payload = client.stats()
        # Each worker served 3 of the 6 singles: an un-aggregated /stats
        # (one arbitrary worker) could never report 6.
        assert payload["counters"]["single"] == 6
        assert payload["workers"] == 2
        assert payload["aggregated"] is True
        assert payload["records"] == len(corpus)

    def test_metrics_scrape_is_fleet_wide(self, library_dir):
        with ServerFleet(library_dir, workers=2, readers=2) as fleet:
            _singles_per_worker(fleet, 2)
            with CorpusClient(fleet.url, timeout=10.0) as client:
                snapshot = client.metrics_snapshot()
                text = client.metrics()
        by_name = {item["name"]: item for item in snapshot["metrics"]}
        requests = by_name["zsmiles_server_requests_total"]
        singles = sum(
            series["value"]
            for series in requests["series"]
            if "single" in series["values"]
        )
        assert singles == 4
        # The text exposition renders the same aggregate.
        assert "# TYPE zsmiles_server_requests_total counter" in text
        latency = by_name["zsmiles_server_request_seconds"]
        single_series = [
            s for s in latency["series"] if s["values"] == ["single"]
        ]
        assert single_series and single_series[0]["count"] == 4

    def test_scope_local_opts_out_of_aggregation(self, library_dir):
        with ServerFleet(library_dir, workers=2, readers=2) as fleet:
            _singles_per_worker(fleet, 3)
            admin_url = f"http://127.0.0.1:{fleet.admin_ports[0]}"
            with CorpusClient(admin_url, timeout=10.0) as client:
                _, body = client._call("GET", "/stats?scope=local")
                local = json.loads(body)
        # One worker on its own saw only its own 3 singles.
        assert local["counters"]["single"] == 3
        assert "aggregated" not in local


class TestReuseportFleetAggregation:
    def test_stats_deterministic_whichever_worker_answers(self, library_dir):
        with ServerFleet(library_dir, workers=2, readers=2) as fleet:
            assert len(fleet.admin_ports) == 2
            _spread_singles(fleet.url, range(8))
            # However the kernel spread those connections, the aggregated
            # answer is exact — scrape twice to show it is stable too.
            with CorpusClient(fleet.url, timeout=10.0) as client:
                first = client.stats()
            with CorpusClient(fleet.url, timeout=10.0) as client:
                second = client.stats()
        assert first["counters"]["single"] == 8
        assert second["counters"]["single"] == 8
        assert first["workers"] == second["workers"] == 2


class TestMergeStatsPayloads:
    def test_a_block_two_workers_quarantined_counts_once(self):
        from repro.server import merge_stats_payloads

        def payload(shards, hits):
            return {
                "counters": {"single": 1},
                "cache": {"hits": 1, "misses": 1},
                "pool_size": 2,
                "uptime_seconds": 1.0,
                "quarantine": {"quarantine_hits": hits, "shards": shards},
            }

        merged = merge_stats_payloads([
            payload({"shard-0": [3, 5]}, 2),
            payload({"shard-0": [5], "shard-1": [0]}, 1),
        ])
        assert merged["quarantine"] == {
            "quarantined_blocks": 3,
            "total_blocks_quarantined": 3,
            "quarantine_hits": 3,
            "shards": {"shard-0": [3, 5], "shard-1": [0]},
        }
        assert merged["workers"] == 2
