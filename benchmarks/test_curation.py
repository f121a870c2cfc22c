"""Curation subsystem benchmark: ingest, single-pass training, re-pack.

One run measures the three legs of the curation loop and lands the numbers
in ``benchmarks/results/BENCH_curation.json`` (git-ignored, so test runs
leave the tree clean):

* **ingest** — lines/sec through the full filter + dedup pipeline over a
  duplicate-heavy synthetic dump;
* **train** — records/sec through the reservoir-sampled single-pass
  dictionary training;
* **repack** — records/sec migrating a packed library to a new dictionary,
  at ``shard_jobs`` 1 vs 4.

Like every benchmark here, assertions gate on *parity* (dedup output is
exactly the unique records; both repacks are byte-identical to each other
and read back equal to the source) and on the run completing — never on
timings — so CI's ``curation-smoke`` job runs this at
``ZSMILES_BENCH_SCALE=smoke`` without flaking on runner speed.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.curation import (
    DictionaryIdentity,
    IngestPipeline,
    ReservoirSampler,
    repack_library,
    tee,
    train_on_sample,
)
from repro.curation.filters import length_filter, strip_filter
from repro.engine import ZSmilesEngine
from repro.library import CorpusLibrary, pack_library
from repro.metrics.reporting import ResultTable

#: Machine-readable curation-throughput record (committed perf trajectory).

#: Each unique record appears this many times in the synthetic dump.
DUPLICATION = 4
#: Shards in the repacked library.
SHARDS = 4


@pytest.fixture(scope="module")
def unique_records(corpus, scale):
    return list(dict.fromkeys(corpus))[: scale.evaluation_size]


@pytest.fixture(scope="module")
def raw_dump(unique_records):
    """A duplicate-heavy dump: every record DUPLICATION times, interleaved."""
    lines = []
    for round_no in range(DUPLICATION):
        for i, record in enumerate(unique_records):
            lines.append(record if (round_no + i) % 3 else f"  {record}")
            if i % 11 == 0:
                lines.append("")
    return lines


def _leg(seconds: float, items: int, unit: str) -> dict:
    seconds = max(seconds, 1e-9)
    return {
        "seconds": round(seconds, 6),
        unit: items,
        f"{unit}_per_sec": round(items / seconds, 1),
    }


def test_curation_loop_throughput(
    raw_dump, unique_records, report, results_dir, tmp_path_factory
):
    """Ingest → train → repack at two shard-jobs settings; parity-gated."""
    tmp_root = tmp_path_factory.mktemp("curation_bench")

    # -- ingest: filters + dedup over the dump --------------------------- #
    pipeline = IngestPipeline([strip_filter(), length_filter(1, 500)])
    sampler = ReservoirSampler(max(len(unique_records) // 2, 1), seed=7)
    start = time.perf_counter()
    curated = list(tee(pipeline.process(raw_dump), sampler))
    ingest_s = time.perf_counter() - start
    stats = pipeline.stats
    stats.check()
    assert curated == unique_records  # dedup keeps first occurrences, stripped
    assert stats.lines_in == len(raw_dump)
    assert stats.lines_in == stats.records_out + stats.rejected_total()

    # -- train: single-pass reservoir-sampled dictionary ------------------ #
    start = time.perf_counter()
    engine_b, train_sampler = train_on_sample(
        iter(curated),
        capacity=max(len(curated) // 2, 1),
        seed=13,
        preprocessing=False,
        lmax=6,
    )
    train_s = time.perf_counter() - start
    assert train_sampler.seen == len(curated)

    # -- repack: migrate a packed library to dictionary B ------------------ #
    source_dir = tmp_root / "source.library"
    with ZSmilesEngine.train(curated, preprocessing=False, lmax=8) as engine_a:
        pack_library(source_dir, curated, engine_a, shards=SHARDS)
    with CorpusLibrary.open(source_dir) as source:
        source_records = list(source.iter_all())

    repack_legs = {}
    destinations = {}
    with engine_b:
        for jobs in (1, 4):
            destination = tmp_root / f"repacked-j{jobs}.library"
            start = time.perf_counter()
            result = repack_library(
                source_dir, destination, engine_b.table, shard_jobs=jobs
            )
            repack_legs[f"shard_jobs_{jobs}"] = _leg(
                time.perf_counter() - start, result.records, "records"
            )
            destinations[jobs] = destination
            assert result.records == len(source_records)
            assert result.target_identity == DictionaryIdentity.of(engine_b.table)

    # Parity: both repacks byte-identical to each other, readback == source.
    shard_names = sorted(p.name for p in destinations[1].glob("*.zss"))
    assert shard_names == sorted(p.name for p in destinations[4].glob("*.zss"))
    for name in shard_names:
        assert (destinations[1] / name).read_bytes() == (
            destinations[4] / name
        ).read_bytes()
    with CorpusLibrary.open(destinations[4]) as repacked:
        assert list(repacked.iter_all()) == source_records

    payload = {
        "benchmark": "curation_loop",
        "scale": os.environ.get("ZSMILES_BENCH_SCALE", "benchmark"),
        "unique_records": len(unique_records),
        "duplication": DUPLICATION,
        "shards": SHARDS,
        "legs": {
            "ingest": {
                **_leg(ingest_s, stats.lines_in, "lines"),
                "records_out": stats.records_out,
                "rejected": stats.rejected_total(),
            },
            "train": {
                **_leg(train_s, train_sampler.seen, "records"),
                "sample_size": len(train_sampler),
                "dictionary_entries": len(engine_b.table),
            },
            "repack": repack_legs,
        },
        "parity": "byte-identical",
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    table = ResultTable(
        title="Curation loop: ingest -> train -> repack",
        columns=["leg", "items", "items/sec"],
    )
    table.add_row("ingest (lines)", stats.lines_in,
                  payload["legs"]["ingest"]["lines_per_sec"])
    table.add_row("train (records)", train_sampler.seen,
                  payload["legs"]["train"]["records_per_sec"])
    for name, leg in repack_legs.items():
        table.add_row(f"repack {name} (records)", leg["records"],
                      leg["records_per_sec"])
    table.add_note(
        f"{len(unique_records)} unique records x{DUPLICATION} dup factor; "
        f"{SHARDS}-shard repack; parity gated, timings informational."
    )
    report("curation_loop", table)
    (results_dir / "BENCH_curation.json").write_text(text, encoding="utf-8")
