"""The multi-process fleet tier: SO_REUSEPORT workers, worker-crash
survival, and the ``zsmiles serve --workers`` CLI lifecycle.

Every fleet read is parity-gated against the direct library — scaling out
must never change a byte.
"""

from __future__ import annotations

import signal
import socket
import subprocess
import sys

import pytest

from repro.errors import ServerConnectionError, ServerError
from repro.library import CorpusLibrary
from repro.server import CorpusClient, ServerFleet, protocol


@pytest.fixture(scope="module")
def fleet(library_dir):
    with ServerFleet(library_dir, workers=2, readers=2) as fleet:
        yield fleet


class TestFleetParity:
    """Fleet reads are byte-identical to direct library reads."""

    def test_records_reported(self, fleet, corpus):
        assert fleet.records == len(corpus)
        assert fleet.alive_workers() == 2

    def test_single_get_parity(self, fleet, corpus):
        with CorpusClient(fleet.url, timeout=10.0) as client:
            for i in (0, 1, 7, len(corpus) - 1):
                assert client.get(i) == corpus[i]

    def test_batch_parity(self, fleet, library_dir, corpus):
        indices = list(range(0, len(corpus), 3))
        with CorpusClient(fleet.url, timeout=10.0) as client:
            remote = client.get_many(indices)
        with CorpusLibrary.open(library_dir) as direct:
            local = direct.get_many(indices)
        assert remote == local == [corpus[i] for i in indices]

    def test_stream_parity(self, fleet, corpus):
        with CorpusClient(fleet.url, timeout=10.0) as client:
            assert list(client.iter_range(5, 90)) == list(corpus[5:90])

    def test_sample_is_seed_deterministic_across_workers(self, fleet, corpus):
        """Every worker serves the same corpus, so a seeded sample must be
        identical no matter which worker the kernel picks."""
        draws = []
        for _ in range(4):  # several connections → several workers
            with CorpusClient(fleet.url, timeout=10.0) as client:
                draws.append(client.sample(6, seed=11))
        assert all(draw == draws[0] for draw in draws)
        indices, records = draws[0]
        assert records == [corpus[i] for i in indices]

    def test_stats_reachable(self, fleet, corpus):
        with CorpusClient(fleet.url, timeout=10.0) as client:
            payload = client.stats()
        assert payload["records"] == len(corpus)
        assert payload["uptime_seconds"] >= 0.0

    def test_typed_errors_cross_the_fleet(self, fleet, corpus):
        from repro.errors import RandomAccessError

        with CorpusClient(fleet.url, timeout=10.0) as client:
            with pytest.raises(RandomAccessError):
                client.get(len(corpus))


class TestWorkerCrashSurvival:
    def test_survivors_serve_after_worker_kill(self, library_dir, corpus):
        with ServerFleet(library_dir, workers=2) as fleet:
            with CorpusClient(fleet.url, timeout=10.0) as client:
                assert client.get(0) == corpus[0]
            fleet.kill_worker(0)
            assert fleet.alive_workers() == 1
            # Fresh connections only ever reach the survivor.
            for _ in range(4):
                with CorpusClient(fleet.url, timeout=10.0) as client:
                    assert client.get_many([0, 5, 9]) == [
                        corpus[0], corpus[5], corpus[9],
                    ]

    def test_dead_fleet_is_a_retryable_connection_error(self, library_dir):
        """With every worker dead the port refuses connections, which the
        client reports as the error the failover clients retry on."""
        with ServerFleet(library_dir, workers=2) as fleet:
            fleet.kill_worker(0)
            fleet.kill_worker(1)
            with CorpusClient(fleet.url, timeout=5.0) as client:
                with pytest.raises(ServerConnectionError) as exc_info:
                    client.get(0)
        assert protocol.is_retryable(exc_info.value)


class TestFleetLifecycle:
    def test_workers_must_be_positive(self, library_dir):
        with pytest.raises(ServerError, match="workers"):
            ServerFleet(library_dir, workers=0)

    def test_fleet_cannot_be_restarted(self, library_dir):
        fleet = ServerFleet(library_dir, workers=1)
        fleet.start()
        fleet.stop()
        with pytest.raises(ServerError, match="restarted"):
            fleet.start()

    def test_stop_is_idempotent(self, library_dir):
        fleet = ServerFleet(library_dir, workers=1)
        fleet.start()
        fleet.stop()
        fleet.stop()

    def test_platform_without_reuseport_cannot_host_a_fleet(
        self, library_dir, monkeypatch
    ):
        monkeypatch.delattr(socket, "SO_REUSEPORT")
        fleet = ServerFleet(library_dir, workers=1)
        with pytest.raises(ServerError, match="SO_REUSEPORT"):
            fleet.start()
        assert fleet._processes == []

    def test_startup_failure_surfaces_as_server_error(self, tmp_path):
        with pytest.raises(ServerError, match="failed to start"):
            ServerFleet(tmp_path / "missing.zss", workers=1).start()

    def test_unopenable_access_log_names_the_cause(self, library_dir, tmp_path):
        """A worker's start-up failure reaches the parent with its cause,
        not only as a worker that exited."""
        fleet = ServerFleet(
            library_dir, workers=1, access_log=str(tmp_path / "missing" / "access.log")
        )
        with pytest.raises(ServerError, match="failed to start: FileNotFoundError"):
            fleet.start()
        assert fleet._processes == []

    def test_spawn_failure_mid_startup_leaks_no_workers(
        self, library_dir, monkeypatch
    ):
        """A failure while spawning worker k must terminate workers 0..k-1
        and release the reserved port — not leak live processes behind the
        startup error."""
        import multiprocessing

        real_context = multiprocessing.get_context("spawn")
        spawned = []

        class ExplodingContext:
            def Queue(self):
                return real_context.Queue()

            def Process(self, *args, **kwargs):
                if spawned:
                    raise RuntimeError("spawn exploded")
                process = real_context.Process(*args, **kwargs)
                spawned.append(process)
                return process

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method: ExplodingContext()
        )
        fleet = ServerFleet(library_dir, workers=2)
        with pytest.raises(RuntimeError, match="spawn exploded"):
            fleet.start()
        assert len(spawned) == 1
        assert not spawned[0].is_alive(), "worker 0 leaked past the failure"
        assert fleet._processes == []
        assert fleet._placeholder is None

    def test_graceful_stop_exits_workers_cleanly(self, library_dir):
        fleet = ServerFleet(library_dir, workers=2)
        fleet.start()
        processes = list(fleet._processes)
        fleet.stop()
        assert all(p.exitcode == 0 for p in processes)


class TestServeCliWorkers:
    def test_serve_workers_flag_runs_a_fleet(self, library_dir, corpus):
        """`zsmiles serve --workers 2` prints the URL line, serves, and
        shuts down cleanly on SIGTERM and on SIGINT."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve", str(library_dir),
                    "--workers", "2", "--port", "0", "--readers", "2",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            try:
                line = process.stdout.readline()
                assert line.startswith("serving "), line
                assert "workers=2" in line
                url = line.split(" at ", 1)[1].split()[0]
                with CorpusClient(url, timeout=10.0) as client:
                    assert client.get(3) == corpus[3]
                    assert client.get_many([0, 9]) == [corpus[0], corpus[9]]
                process.send_signal(signum)
                assert process.wait(timeout=30) == 0, signum
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)
                process.stdout.close()

    def test_serve_rejects_nonpositive_workers(self, library_dir):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "serve", str(library_dir),
                "--workers", "0",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert "--workers" in result.stderr
