"""Serving-path latency: flat vs ``.zss`` vs sharded library vs async.

Times single-get and batched-get requests against every serving layout over
the same corpus and reports one comparison table.  This is a *smoke-friendly*
benchmark: assertions only check that every layout serves byte-identical
records (and that the run completes) — never timings — so CI can run it at
``ZSMILES_BENCH_SCALE=smoke`` as a serving-path regression tripwire without
flaking on machine speed.
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.core.random_access import LineIndex, RandomAccessReader
from repro.core.streaming import write_lines
from repro.engine import ZSmilesEngine
from repro.library import AsyncCorpusLibrary, CorpusLibrary, pack_library
from repro.metrics.reporting import ResultTable
from repro.store import pack_records

#: Random single-get requests timed per layout.
REQUESTS = 200
#: Indices per batched get_many call.
BATCH_SIZE = 50
#: Shards in the sharded-library layout.
SHARDS = 4
#: Concurrent block loads for the async layout.
POOL_SIZE = 4


@pytest.fixture(scope="module")
def serving_corpus(corpus):
    return corpus[: min(2_000, len(corpus))]


@pytest.fixture(scope="module")
def layouts(tmp_path_factory, shared_codec, serving_corpus):
    """One corpus packed in every serving layout."""
    directory = tmp_path_factory.mktemp("store_latency")
    smi = directory / "corpus.smi"
    zsmi = directory / "corpus.zsmi"
    write_lines(smi, serving_corpus)
    ZSmilesEngine.from_codec(shared_codec, backend="kernel").compress_file(smi, zsmi)
    index = LineIndex.build(zsmi)
    index.save(LineIndex.default_path(zsmi))

    zss = directory / "corpus.zss"
    library_dir = directory / "corpus.library"
    with ZSmilesEngine.from_codec(shared_codec, backend="serial") as engine:
        pack_records(zss, serving_corpus, engine, records_per_block=64)
        pack_library(library_dir, serving_corpus, engine,
                     shards=SHARDS, records_per_block=64)
    return {
        "flat .zsmi": lambda: RandomAccessReader(zsmi, index=index, codec=shared_codec),
        "single .zss": lambda: CorpusLibrary.open(zss),
        "sharded library": lambda: CorpusLibrary.open(library_dir),
    }, library_dir


def _request_indices(total: int) -> list:
    rng = random.Random(17)
    return [rng.randrange(total) for _ in range(REQUESTS)]


def test_single_and_batched_get_latency(layouts, serving_corpus, report):
    """Time every layout on the same request stream; assert byte parity."""
    openers, library_dir = layouts
    indices = _request_indices(len(serving_corpus))
    batches = [indices[i : i + BATCH_SIZE] for i in range(0, len(indices), BATCH_SIZE)]

    table = ResultTable(
        title="Store serving latency (lower is better)",
        columns=["layout", "single get (us/req)", "get_many (us/req)", "requests"],
    )
    reference = None
    for name, opener in openers.items():
        with opener() as reader:
            assert len(reader) == len(serving_corpus)
            start = time.perf_counter()
            singles = [reader.get(i) for i in indices]
            single_s = time.perf_counter() - start

            start = time.perf_counter()
            batched = [record for batch in batches for record in reader.get_many(batch)]
            batched_s = time.perf_counter() - start

        assert batched == singles
        if reference is None:
            reference = singles
        else:
            # The parity that makes the timings comparable: every layout
            # serves byte-identical records for the same request stream.
            assert singles == reference
        table.add_row(
            name,
            single_s / REQUESTS * 1e6,
            batched_s / REQUESTS * 1e6,
            REQUESTS,
        )

    # Async layout: one batched get_many fanned out over POOL_SIZE threads.
    async def timed_async() -> tuple:
        async with AsyncCorpusLibrary.open(library_dir, pool_size=POOL_SIZE) as library:
            start = time.perf_counter()
            records = await library.get_many(indices)
            return records, time.perf_counter() - start

    records, async_s = asyncio.run(timed_async())
    assert records == reference
    table.add_row(
        f"async pool ({POOL_SIZE} threads)",
        "-",
        async_s / REQUESTS * 1e6,
        REQUESTS,
    )
    table.add_note(
        f"{len(serving_corpus)} records; {len(batches)} batches of <= {BATCH_SIZE}; "
        f"library split over {SHARDS} shards."
    )
    report("store_latency", table)


def test_cold_single_get_touches_one_block(layouts, serving_corpus):
    """Cold-start sanity: one request decodes one block, not the corpus."""
    openers, _ = layouts
    with openers["sharded library"]() as library:
        middle = len(serving_corpus) // 2
        record = library.get(middle)
        assert record  # non-empty
        shard_no, _ = library.manifest.locate(middle)
        shard = library.shard(shard_no)
        assert shard.blocks_decoded == 1
        assert library.open_shard_count == 1
