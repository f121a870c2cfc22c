"""``zsmiles serve``: argument surface and a real subprocess round trip."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.datasets.io import write_smi
from repro.server import CorpusClient
from repro.server.app import DEFAULT_HOST, DEFAULT_PORT

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "corpus.library"])
        assert args.host == DEFAULT_HOST
        assert args.port == DEFAULT_PORT
        assert args.readers >= 1
        assert args.mmap is False

    def test_all_flags(self):
        args = build_parser().parse_args([
            "serve", "c.library", "--host", "0.0.0.0", "--port", "0",
            "--readers", "8", "--cache-blocks", "4", "--mmap",
        ])
        assert (args.host, args.port, args.readers, args.cache_blocks, args.mmap) == (
            "0.0.0.0", 0, 8, 4, True
        )

    def test_rejects_bad_counts(self, tmp_path):
        target = tmp_path / "x.library"
        assert main(["serve", str(target), "--readers", "0"]) == 2
        assert main(["serve", str(target), "--cache-blocks", "0"]) == 2
        assert main(["serve", str(target), "--port", "-1"]) == 2

    def test_access_log_flag(self):
        assert build_parser().parse_args(["serve", "c.library"]).access_log is None
        args = build_parser().parse_args(
            ["serve", "c.library", "--access-log", "access.log"]
        )
        assert args.access_log == "access.log"


@pytest.fixture(scope="module")
def served_library(tmp_path_factory):
    """A tiny packed library built through the CLI, ready to serve."""
    from repro.datasets import mixed

    directory = tmp_path_factory.mktemp("cli_serve")
    corpus = mixed.generate(96, seed=23)
    smi = directory / "corpus.smi"
    write_smi(smi, corpus)
    dictionary = directory / "shared.dct"
    assert main(["train", str(smi), "-o", str(dictionary), "--lmax", "6"]) == 0
    library_dir = directory / "corpus.library"
    assert main([
        "pack", str(smi), "-d", str(dictionary), "-o", str(library_dir),
        "--shards", "2", "--block-size", "16",
    ]) == 0
    return library_dir


class TestServeSubprocess:
    def test_serve_round_trip_and_sigterm_shutdown(self, served_library):
        """The real thing: ``zsmiles serve`` as a process, ephemeral port,
        client round trip, clean exit on SIGTERM and on SIGINT."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        for signum in (signal.SIGTERM, signal.SIGINT):
            process = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli",
                 "serve", str(served_library), "--port", "0", "--readers", "2"],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                env=env,
                text=True,
            )
            try:
                announce = process.stdout.readline()
                assert "serving" in announce and "http://" in announce, announce
                url = next(tok for tok in announce.split() if tok.startswith("http://"))
                with CorpusClient(url, timeout=10.0) as client:
                    direct_len = len(client)
                    assert direct_len == 96
                    assert client.get(0)
                    assert client.get_many([5, 90]) == [client.get(5), client.get(90)]
                    assert len(client.slice(0, 96)) == 96
                process.send_signal(signum)
                assert process.wait(timeout=15) == 0, signum
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)
                process.stdout.close()

    def test_serve_parity_with_direct_reads(self, served_library):
        """Records over the subprocess wire == records read in-process."""
        from repro.library import CorpusLibrary

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli",
             "serve", str(served_library), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            announce = process.stdout.readline()
            url = next(tok for tok in announce.split() if tok.startswith("http://"))
            with CorpusLibrary.open(served_library) as direct:
                expected = list(direct.iter_all())
            with CorpusClient(url, timeout=10.0) as client:
                assert list(client.iter_all()) == expected
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=15)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_serve_access_log_writes_structured_lines(self, served_library, tmp_path):
        """``--access-log PATH`` produces one JSON line per request."""
        import json

        log_path = tmp_path / "access.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli",
             "serve", str(served_library), "--port", "0", "--readers", "2",
             "--access-log", str(log_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            announce = process.stdout.readline()
            url = next(tok for tok in announce.split() if tok.startswith("http://"))
            with CorpusClient(url, timeout=10.0) as client:
                assert client.get(0)
                assert client.get_many([1, 2])
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        routes = [entry["route"] for entry in entries]
        assert "single" in routes and "batch" in routes
        for entry in entries:
            assert entry["status"] == 200
            assert entry["request_id"]
            assert entry["duration_ms"] >= 0
