#!/usr/bin/env python3
"""Quickstart: train a shared dictionary, compress a library, get it back.

This walks through the core ZSMILES workflow of the paper (Figure 3) on the
unified engine surface:

1. generate a small MIXED SMILES library (stand-in for a screening input),
2. train the shared dictionary with the paper's recommended configuration
   (ring-identifier preprocessing + SMILES-alphabet pre-population) via
   ``ZSmilesEngine.train``,
3. compress / decompress a whole batch, a single record and a ``.smi`` file
   through the same engine (``backend="auto"`` transparently moves large
   batches onto the process pool),
4. persist the dictionary so other tools (and other machines) can reuse it,
5. pack the library into a block-compressed ``.zss`` store and serve single
   molecules out of it — decoding only the block that holds them,
6. pack the same corpus into a *sharded* library (``library.json`` + N
   shards) and serve it through ``CorpusLibrary`` — synchronously and
   concurrently via ``AsyncCorpusLibrary``'s bounded block loads,
7. stand up the HTTP serving front over that library and read it back
   through ``CorpusClient`` (and plain ``open_reader("http://…")``) — the
   same corpus, now a network service (``zsmiles serve`` is the CLI
   spelling) — then scale it out: a multi-process ``ServerFleet``
   (``zsmiles serve --workers N``), deflate-compressed transport, and a
   replica-aware ``FailoverCorpusClient`` that rides out a dead replica,
8. run the curation loop: ingest a messy dump (filters + streaming dedup),
   train a *pinned* dictionary on a reservoir sample of the same pass, pack
   with it, and migrate the live library to a new dictionary with
   ``repack_library`` — ``zsmiles ingest`` / ``train-dict`` / ``repack`` on
   the CLI,
9. run a generative GA screening campaign over the packed corpus: sample a
   seed population, breed with the fragment operators, score, select, and
   pack every generation as a composed library — then kill it mid-run and
   resume from ``campaign.json`` to the exact same results (``zsmiles
   campaign run`` / ``resume`` / ``status`` / ``top-hits`` on the CLI),
10. survive bit rot: flip bits in a copy of the shards with the seeded
    fault harness (``repro.faults``), let ``zsmiles fsck`` pin down every
    damaged block, and restore the shards byte-identically from a healthy
    replica with ``fsck --repair`` — while degraded reads quarantine the
    bad block and keep serving everything else,
11. observe the stack: serve the library with a structured JSON access log,
    drive it under a caller-chosen trace id, scrape ``GET /metrics``
    (Prometheus text, per-route latency histograms, fleet-aggregated), and
    read the request's span back from ``/stats?trace=recent`` — ``zsmiles
    serve --access-log`` and ``zsmiles stats URL --watch`` on the CLI.

Holding a ``ZSmilesCodec``?  ``ZSmilesEngine.from_codec(codec)`` gives the
same batch, corpus and file surface: ``compress_batch(xs).records``,
``evaluate(corpus)``, ``compress_file(path)``.
Migrating reader plumbing?  See the serving guide in ``repro.library``.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro import (
    AsyncCorpusLibrary,
    BackgroundServer,
    CorpusClient,
    CorpusLibrary,
    EngineConfig,
    FailoverCorpusClient,
    ServerFleet,
    ZSmilesEngine,
    open_reader,
    pack_library,
    pack_records,
)
from repro.core.streaming import write_lines
from repro.datasets import mixed


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="zsmiles_quickstart_"))
    print(f"working directory: {workdir}\n")

    # ------------------------------------------------------------------ #
    # 1. A library to compress (synthetic MIXED corpus, see DESIGN.md).
    # ------------------------------------------------------------------ #
    library = mixed.generate(2_000, seed=7)
    print(f"generated {len(library)} SMILES; example record: {library[0]}")

    # ------------------------------------------------------------------ #
    # 2. Train the shared dictionary (Table I's best configuration).
    #    One EngineConfig collects dictionary, preprocessing, parsing and
    #    backend-selection knobs.
    # ------------------------------------------------------------------ #
    engine = ZSmilesEngine.train(library, EngineConfig(preprocessing=True, lmax=8))
    report = engine.training_report
    assert report is not None
    print(report.summary())

    # ------------------------------------------------------------------ #
    # 3a. Batch compression — the engine's primary surface.
    # ------------------------------------------------------------------ #
    batch = engine.compress_batch(library)
    print(
        f"\nbatch of {batch.stats.lines} records via {batch.backend!r} backend: "
        f"ratio {batch.stats.ratio:.3f} in {batch.wall_time:.2f}s"
    )
    restored = engine.decompress_batch(batch.records)
    assert restored.records == [engine.preprocess(s) for s in library]

    # 3b. Single-record convenience helpers.
    vanillin = "COc1cc(C=O)ccc1O"  # the paper's Figure 1 example
    compressed = engine.compress(vanillin)
    print(f"\nvanillin:            {vanillin}")
    print(f"compressed ({len(compressed)} chars): {compressed!r}")
    print(f"decompressed:        {engine.decompress(compressed)}")
    print(f"record ratio:        {len(compressed) / len(vanillin):.2f}")

    # ------------------------------------------------------------------ #
    # 3c. Whole-file compression with preserved line separability.
    # ------------------------------------------------------------------ #
    smi_path = workdir / "library.smi"
    write_lines(smi_path, library)
    stats = engine.compress_file(smi_path)
    print(
        f"\ncompressed file:     {stats.output_path.name} "
        f"({stats.input_bytes} -> {stats.output_bytes} bytes, ratio {stats.ratio:.3f})"
    )
    restored_file = engine.decompress_file(stats.output_path, workdir / "restored.smi")
    print(f"decompressed file:   {restored_file.output_path.name} ({restored_file.lines} records)")

    # ------------------------------------------------------------------ #
    # 4. Persist the dictionary for reuse.
    # ------------------------------------------------------------------ #
    dct_path = workdir / "shared.dct"
    engine.save_dictionary(dct_path)
    reloaded = ZSmilesEngine.from_dictionary(dct_path)
    assert reloaded.decompress(compressed) == engine.preprocess(vanillin)
    print(f"\ndictionary saved to {dct_path} and reloaded successfully")

    corpus_stats = engine.evaluate(library)
    print(f"corpus compression ratio: {corpus_stats.ratio:.3f} (paper reports up to 0.29)")

    # ------------------------------------------------------------------ #
    # 5. Pack into the block-compressed .zss store and query it.
    #    Blocks are compressed through the engine (parallel across blocks on
    #    the process pool for big corpora); the dictionary is embedded in the
    #    store footer, so the reader needs no external codec.
    # ------------------------------------------------------------------ #
    zss_path = workdir / "library.zss"
    info = pack_records(zss_path, library, engine, records_per_block=128)
    print(
        f"\npacked store:        {zss_path.name} — {info.records} records in "
        f"{info.blocks} blocks, {info.file_bytes} bytes (payload ratio {info.ratio:.3f})"
    )
    with CorpusLibrary.open(zss_path) as store:
        molecule = store.get(1_234)
        assert molecule == engine.preprocess(library[1_234])
        shard = store.shard(0)
        print(
            f"store.get(1234):     {molecule} "
            f"(decoded {shard.blocks_decoded} of {shard.block_count} blocks, "
            f"{shard.bytes_read} of {info.payload_bytes} payload bytes)"
        )

    # ------------------------------------------------------------------ #
    # 6. Shard the corpus into a serving library and read it concurrently.
    #    library.json routes global indices to shards; shards open lazily
    #    and share one LRU cache budget.  The async surface fans batched
    #    requests out over at most pool_size threads loading blocks.
    # ------------------------------------------------------------------ #
    library_dir = workdir / "library.library"
    lib_info = pack_library(library_dir, library, engine, shards=4, records_per_block=128)
    print(
        f"\nsharded library:     {library_dir.name} — {lib_info.records} records in "
        f"{lib_info.shard_count} shards ({lib_info.blocks} blocks, "
        f"{lib_info.file_bytes} bytes on disk)"
    )
    with CorpusLibrary.open(library_dir) as lib:
        assert lib.get(1_234) == engine.preprocess(library[1_234])
        print(
            f"library.get(1234):   routed to shard "
            f"{lib.manifest.locate(1_234)[0]} ({lib.open_shard_count} of "
            f"{lib.shard_count} shards opened)"
        )

    async def serve_concurrently() -> None:
        async with AsyncCorpusLibrary.open(library_dir, pool_size=4) as alib:
            wanted = [5, 999, 1_234, 1_999]
            records = await alib.get_many(wanted)
            assert records == [engine.preprocess(library[i]) for i in wanted]
            streamed = [record async for record in alib.stream(0, 8)]
            assert streamed == [engine.preprocess(s) for s in library[:8]]
            print(
                f"async get_many:      {len(records)} records over "
                f"{alib.pool_size} load threads; streamed {len(streamed)} more"
            )

    asyncio.run(serve_concurrently())

    # ------------------------------------------------------------------ #
    # 7. The network tier: the same library as an HTTP service.
    #    `zsmiles serve library.library --port 8765` is the CLI spelling;
    #    here the server runs on a background thread of this process.  The
    #    readers bound caps concurrent block loads (backpressure),
    #    and any RecordReader consumer can point at the URL.
    # ------------------------------------------------------------------ #
    with BackgroundServer(library_dir, readers=4) as server:
        with CorpusClient(server.url) as client:
            assert client.get(1_234) == engine.preprocess(library[1_234])
            batch = client.get_many([5, 999, 1_234, 1_999])
            streamed = client.slice(0, 256)
            stats = client.stats()
            print(
                f"\nHTTP serving front:  {server.url} — fetched 1 + {len(batch)} + "
                f"{len(streamed)} records over the wire "
                f"(cache: {stats['cache']['hits']} hits / "
                f"{stats['cache']['misses']} misses)"
            )
        # Consumers don't need to know it's remote: open_reader dispatches.
        with open_reader(server.url) as remote:
            assert remote.get(42) == engine.preprocess(library[42])
            print("open_reader(url):    served record 42 through the shared protocol")

    # ------------------------------------------------------------------ #
    # 7b. Scale the front out.  `zsmiles serve library.library --workers 4`
    #     pre-forks worker processes over the same library, which share
    #     one port through SO_REUSEPORT kernel dispatch; ServerFleet is
    #     the in-process spelling.  Clients negotiate deflate transport
    #     transparently (Accept-Encoding; the server only compresses when
    #     it pays), and FailoverCorpusClient round-robins
    #     replicas, retrying connection loss and 503s while typed request
    #     errors (404/400) propagate untouched.
    # ------------------------------------------------------------------ #
    with ServerFleet(library_dir, workers=2, readers=4) as fleet:
        with BackgroundServer(library_dir, readers=4) as second_replica:
            with FailoverCorpusClient([fleet.url, second_replica.url]) as client:
                wanted = [5, 999, 1_234, 1_999]
                assert client.get_many(wanted) == [
                    engine.preprocess(library[i]) for i in wanted
                ]
                fleet.kill_worker(0)  # a replica degrades mid-flight...
                streamed = client.slice(0, 256)  # ...and reads keep landing
                assert streamed == [engine.preprocess(s) for s in library[:256]]
                print(
                    f"fleet + failover:    fleet of 2 workers at "
                    f"{fleet.url}; killed one worker mid-stream, "
                    f"{len(streamed)} records still byte-correct across "
                    f"{len(client.urls)} replicas (deflate transport)"
                )

    # ------------------------------------------------------------------ #
    # 8. The curation loop: ingest -> train -> pack -> repack.
    #    A messy multi-source dump streams through filters + dedup once;
    #    a reservoir sampler tees off the training sample in the same pass;
    #    the dictionary is pinned (name/version/content hash) so every
    #    manifest packed with it records its identity; and when a better
    #    dictionary lands, the live library migrates loss-free.
    # ------------------------------------------------------------------ #
    from repro.curation import (
        IngestPipeline,
        ReservoirSampler,
        ingest_to_file,
        repack_library,
        save_pinned,
        strip_filter,
        tee,
    )

    dump_path = workdir / "dump.txt"
    write_lines(dump_path, library + library[:500] + ["", "   "])  # dupes + blanks
    curated_path = workdir / "curated.smi"
    pipeline = IngestPipeline([strip_filter()])
    stats = ingest_to_file(dump_path, curated_path, pipeline)
    print(
        f"\ningest:              {stats.lines_in} lines -> {stats.records_out} "
        f"records ({stats.rejected_total()} rejected; counters tally)"
    )

    sampler = ReservoirSampler(1_000, seed=7)
    for _ in tee(pipeline.process(dump_path), sampler):
        pass
    engine_v2 = ZSmilesEngine.train(sampler.sample, EngineConfig(preprocessing=True, lmax=8))
    identity = save_pinned(engine_v2.table, workdir / "shared-v2.dct",
                           name="quickstart", version="2")
    print(f"trained dictionary:  {identity.label()} on a {len(sampler)}-record sample")

    result = repack_library(library_dir, workdir / "library.v2.library",
                            engine_v2.table, shard_jobs=2)
    print(
        f"repacked library:    {result.records} records -> "
        f"{result.target_identity.label()} (readback verified; source untouched)"
    )

    # ------------------------------------------------------------------ #
    # 9. A generative GA screening campaign over the packed corpus.
    #    Seeds sample from the library (the same sample(n, seed) the HTTP
    #    tier serves), offspring breed through the fragment operators and
    #    the curation filter chain, the deterministic docking surrogate
    #    scores them, and every generation lands as a normal library
    #    composed into one manifest.  campaign.json checkpoints the RNG
    #    state after each generation, so a campaign killed at any instant
    #    resumes to byte-identical results.
    # ------------------------------------------------------------------ #
    from repro.campaign import CampaignConfig, CampaignDriver, campaign_top_hits

    campaign_dir = workdir / "campaign"
    config = CampaignConfig(population_size=16, generations=3, seed=29,
                            immigrants=4)
    with CampaignDriver.start(library_dir, campaign_dir, config) as driver:
        driver.step()  # generation 1... then pretend the process died.
    # A new process picks the checkpoint up and finishes the campaign.
    with CampaignDriver.resume(campaign_dir) as driver:
        state = driver.run()
    best, best_score = campaign_top_hits(campaign_dir, 1)[0]
    print(
        f"\ncampaign:            {state.generation + 1} generations, "
        f"{state.counters()['scored']} molecules scored, resumed after an "
        f"interrupt;\n                     best hit {best_score:.3f}  {best}"
    )

    # ------------------------------------------------------------------ #
    # 10. Disks rot: scrub and repair the packed library.  A seeded fault
    #     schedule flips bits in a *copy* of the shards (the healthy
    #     original plays the role of a clean replica), ``zsmiles fsck``
    #     pins down every damaged block, and ``--repair`` restores the
    #     shards byte-identically from the replica.  Reads of the corrupt
    #     copy stay degraded, not dead: the bad block is quarantined and
    #     every record outside it keeps serving.
    # ------------------------------------------------------------------ #
    import shutil

    from repro import fsck_path, repair_path
    from repro.faults import FaultSchedule, apply_corruptions

    damaged_dir = workdir / "library_damaged"
    shutil.copytree(library_dir, damaged_dir)
    schedule = FaultSchedule(seed=4242)
    plan = schedule.plan_corruptions(
        sorted(damaged_dir.glob("*.zss")), flips=3, truncations=0
    )
    apply_corruptions(plan)

    report = fsck_path(damaged_dir)
    print(f"\nfsck after bit rot:  {report.summary().splitlines()[1].strip()}")
    result = repair_path(damaged_dir, replica=library_dir)
    assert result.after.clean, "repair must leave the library clean"
    parity = all(
        (damaged_dir / path.name).read_bytes() == path.read_bytes()
        for path in sorted(library_dir.glob("*.zss"))
    )
    print(
        f"fsck --repair:       restored {len(result.repaired)} shard(s) from "
        f"the replica; byte-identical: {parity}"
    )

    # ------------------------------------------------------------------ #
    # 11. Observe the stack.  Serve with a structured access log, pin a
    #     trace id on a batch of reads (the client stamps it on every
    #     request; the server adopts, logs and echoes it), scrape the
    #     Prometheus exposition, and read the spans back.  `zsmiles serve
    #     --access-log access.log` / `zsmiles stats URL --watch 2` are the
    #     CLI spellings; ZSMILES_TELEMETRY=off is the kill switch (responses
    #     stay byte-identical either way).
    # ------------------------------------------------------------------ #
    import json

    from repro.telemetry import trace_context

    access_log = workdir / "access.log"
    with BackgroundServer(library_dir, readers=4, access_log=access_log) as server:
        with CorpusClient(server.url) as client:
            with trace_context() as trace_id:
                client.get(1_234)           # both requests share one trace id
                client.get_many([5, 999])
            exposition = client.metrics()
            spans = client.stats(trace=True)["trace"]
    latency_lines = [
        line for line in exposition.splitlines()
        if line.startswith("zsmiles_server_request_seconds_bucket")
    ]
    logged = [json.loads(line) for line in access_log.read_text().splitlines()]
    traced = [entry for entry in logged if entry["request_id"] == trace_id]
    print(
        f"\nobservability:       trace {trace_id} covered "
        f"{len(traced)} access-log lines "
        f"(routes {sorted({e['route'] for e in traced})}); /metrics served "
        f"{len(latency_lines)} latency-bucket series; "
        f"{len(spans)} recent spans via /stats?trace=recent"
    )
    assert all(entry["status"] == 200 for entry in traced)
    assert any(span["trace_id"] == trace_id for span in spans)


if __name__ == "__main__":
    main()
