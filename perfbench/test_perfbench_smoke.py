"""Smoke scale of the benchmark: every workload runs, reports and checks out.

Runs ``perfbench/run.py --scale smoke`` (an 8192-molecule corpus: 32
blocks, twice the server's block cache) in a subprocess, exactly as the
benchmark is run, with its cache in a temporary directory so the checkout
stays clean.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: The workloads' own metric names, printed in every report with their units.
NAMED = {
    "pack": ("setup_s", "rss_mb", "ingest_lines_per_s", "pack_records_per_s",
             "repack_records_per_s", "compression_ratio", "error_rate"),
    "read": ("setup_s", "rss_mb", "get_rps", "get_p50_us", "get_p90_us",
             "batch_records_per_s", "batch_p90_us", "stream_records_per_s",
             "stream_p90_us", "compression_ratio", "error_rate"),
}


def _run(root: Path, cache: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--scale", "smoke",
         "--seconds", "1", "--seed", "3", "--cache", str(cache), *args],
        capture_output=True, text=True, timeout=600, cwd=root,
    )


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> Path:
    """One input cache for the module: the molecule pool is generated once."""
    return tmp_path_factory.mktemp("perfbench-cache")


@pytest.fixture(scope="module")
def traced(cache) -> dict:
    """One traced run of every workload, shared by the tests below."""
    return {name: _run(ROOT, cache, "--workload", name, "--trace", "1") for name in WORKLOADS}


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-4000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _layers(completed: subprocess.CompletedProcess) -> dict:
    return {name: metric["value"] for name, metric in _result(completed)["metrics"].items()}


def test_every_workload_reports_every_end_to_end_metric(cache):
    completed = _run(ROOT, cache)
    result = _result(completed)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(WORKLOADS)
    for metrics in result["metrics"].values():
        assert {name: metric["unit"] for name, metric in metrics.items()} == units
        assert all(metric["value"] > 0 for metric in metrics.values())
    reports = completed.stdout.split("== perfbench ")[1:]
    assert len(reports) == 3
    for report in reports:
        for name in NAMED["pack" if report.startswith("pack") else "read"]:
            assert f"  {name} " in report, name
        assert " 0.000000  ratio (0 of " in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(cache, traced, workload):
    completed = traced[workload]
    result = _result(completed)
    assert result["correct"] is True and result["failed"] == 0
    units = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == units
    assert "span self time:" in completed.stdout
    assert "tracing overhead (traced minus untraced):" in completed.stdout
    assert (cache / "traces" / f"{workload}-seed3.json").is_file()


def test_traced_layers_separate_the_workloads(traced):
    pack, cold, hot = (_layers(traced[name]) for name in ("pack", "read-cold", "read-hot"))
    # The write path runs only under pack, the serving stack only under the reads.
    assert pack["dictionary.entries"] > 0 and pack["store.write_us_per_record"] > 0
    assert pack["server.request_us.get"] == 0
    for reads in (cold, hot):
        assert reads["server.request_us.get"] > 0 and reads["curation.ingest_s"] == 0
    # Uniform gets over twice the cache miss about half the time and decode
    # a block on each miss; hot gets stay inside the warmed cache.
    assert hot["store.cache_hit_ratio.get"] >= 0.99
    assert cold["store.cache_hit_ratio.get"] <= 0.75
    assert cold["store.blocks_per_request.get"] >= 0.25
    assert cold["store.decode_us_per_request.get"] > 0
    assert hot["store.decode_us_per_request.get"] < cold["store.decode_us_per_request.get"]


def test_refuses_to_run_without_the_program(tmp_path):
    """Given only BENCHMARK.json and this directory, it fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, tmp_path / "cache")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
