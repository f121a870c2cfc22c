"""GA campaign throughput: generations/sec over local and HTTP serving tiers.

One campaign runs over a local packed library and an identically-configured
twin runs over an HTTP replica pair (``open_reader("http://a,http://b")``).
The measurements — generations/sec, scores/sec, records written per
generation — land in ``benchmarks/results/BENCH_campaign.json``
(git-ignored, so test runs leave the tree clean).

Like every benchmark here, assertions gate on *parity* (the HTTP campaign
produces byte-identical generation libraries, stats and top-hits to the
local one) and on *completion* (both reach the configured generation
target) — never on timings — so CI's ``campaign-smoke`` job runs this at
``ZSMILES_BENCH_SCALE=smoke`` as a regression tripwire without flaking on
runner speed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig, CampaignDriver
from repro.engine import ZSmilesEngine
from repro.library import pack_library
from repro.metrics.reporting import ResultTable
from repro.server import BackgroundServer

#: Machine-readable campaign-throughput record (committed perf trajectory).

#: (population, generations, immigrants) per benchmark scale.
SCALE_PRESETS = {
    "smoke": (16, 3, 4),
    "benchmark": (48, 5, 8),
    "paper": (64, 8, 16),
}


def _preset() -> tuple:
    name = os.environ.get("ZSMILES_BENCH_SCALE", "benchmark").lower()
    return SCALE_PRESETS.get(name, SCALE_PRESETS["benchmark"])


@pytest.fixture(scope="module")
def campaign_source(tmp_path_factory, shared_codec, corpus):
    """The seed corpus as a packed library (what a serving tier mounts)."""
    directory = tmp_path_factory.mktemp("campaign_bench") / "corpus.library"
    seed_corpus = corpus[: min(1_000, len(corpus))]
    with ZSmilesEngine.from_codec(shared_codec, backend="kernel") as engine:
        pack_library(directory, seed_corpus, engine, shards=2, records_per_block=64)
    return directory


def _campaign_metrics(state) -> dict:
    """Per-generation observability + throughput rates from one finished run."""
    per_generation = [stats.as_dict() for stats in state.generations]
    elapsed = sum(stats.elapsed_seconds for stats in state.generations)
    elapsed = max(elapsed, 1e-9)
    scored = sum(stats.scored for stats in state.generations)
    written = sum(stats.records_written for stats in state.generations)
    return {
        "generations": len(state.generations),
        "elapsed_seconds": round(elapsed, 6),
        "generations_per_sec": round(len(state.generations) / elapsed, 3),
        "scored": scored,
        "scores_per_sec": round(scored / elapsed, 1),
        "records_written": written,
        "records_written_per_generation": [
            stats.records_written for stats in state.generations
        ],
        "per_generation": per_generation,
    }


def _deterministic_surface(workdir: Path, state) -> tuple:
    """Everything two equal campaigns must agree on, transport aside."""
    shard_bytes = {
        p.relative_to(workdir).as_posix(): p.read_bytes()
        for p in sorted(workdir.rglob("*.zss"))
    }
    composed = (workdir / state.composed_manifest).read_bytes()
    stats = [g.deterministic_dict() for g in state.generations]
    return stats, composed, shard_bytes


def test_campaign_throughput_local_and_http(campaign_source, report, results_dir):
    population, generations, immigrants = _preset()
    config = CampaignConfig(
        population_size=population,
        generations=generations,
        seed=29,
        immigrants=immigrants,
        score_jobs=4,
    )
    base = campaign_source.parent

    # -- local tier ------------------------------------------------------ #
    with CampaignDriver.start(campaign_source, base / "local", config) as driver:
        local_state = driver.run()
        local_hits = driver.top_hits(10)

    # -- HTTP replica tier ---------------------------------------------- #
    with BackgroundServer(campaign_source, readers=4) as a:
        with BackgroundServer(campaign_source, readers=4) as b:
            replicas = f"{a.url},{b.url}"
            with CampaignDriver.start(replicas, base / "http", config) as driver:
                http_state = driver.run()
                http_hits = driver.top_hits(10)

    # -- completion + parity gates (never timings) ----------------------- #
    assert local_state.generation == generations
    assert http_state.generation == generations
    local_surface = _deterministic_surface(base / "local", local_state)
    http_surface = _deterministic_surface(base / "http", http_state)
    assert http_surface[0] == local_surface[0], "per-generation stats diverged"
    assert http_surface[1] == local_surface[1], "composed manifests diverged"
    assert http_surface[2] == local_surface[2], "generation shards diverged"
    assert http_hits == local_hits

    payload = {
        "benchmark": "campaign_throughput",
        "scale": os.environ.get("ZSMILES_BENCH_SCALE", "benchmark"),
        "population_size": population,
        "generations_target": generations,
        "immigrants": immigrants,
        "seed": config.seed,
        "local": _campaign_metrics(local_state),
        "http": _campaign_metrics(http_state),
        "parity": "byte-identical",
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (results_dir / "BENCH_campaign.json").write_text(text, encoding="utf-8")

    table = ResultTable(
        title=f"GA campaign: {generations} generations of {population} "
              f"(+{immigrants} immigrants/gen)",
        columns=["tier", "gen/s", "scores/s", "records written"],
    )
    for tier in ("local", "http"):
        metrics = payload[tier]
        table.add_row(tier, metrics["generations_per_sec"],
                      metrics["scores_per_sec"], metrics["records_written"])
    table.add_note(
        "HTTP tier samples seeds and immigrants through a 2-replica "
        "failover client; outputs byte-identical to the local tier."
    )
    report("campaign_throughput", table)
