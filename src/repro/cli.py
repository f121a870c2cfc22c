"""``zsmiles`` command-line interface.

Mirrors the paper's ZSMILES executable plus the extra plumbing a library user
needs:

* ``zsmiles train``       — train a dictionary from a ``.smi`` file and save it as ``.dct``.
* ``zsmiles compress``    — compress a ``.smi`` file to ``.zsmi`` with a trained dictionary
  (``--backend {serial,kernel,process,auto}`` / ``--jobs N`` select the execution
  backend; ``auto`` routes small batches through the flat-array kernel and large
  ones onto the process pool, whose workers also run the kernel).
* ``zsmiles decompress``  — decompress a ``.zsmi`` file back to ``.smi``.
* ``zsmiles index``       — build the random-access line index of a data file.
* ``zsmiles get``         — fetch single records by line number through the index.
* ``zsmiles pack``        — pack a ``.smi`` file into a block-compressed ``.zss`` store,
  or — with ``--shards N`` — into a sharded library (``library.json`` + N shards;
  blocks compressed through the engine; ``--backend`` / ``--jobs`` parallelize packing,
  ``--shard-jobs N`` packs whole shards concurrently across processes).
* ``zsmiles compose``     — concatenate packed libraries into one ``library.json``
  without repacking a single shard (manifest-level composition).
* ``zsmiles unpack``      — expand a ``.zss`` store or a sharded library back to ``.smi``.
* ``zsmiles query``       — serve individual records out of a ``.zss`` store or library,
  decoding only the blocks touched (``--cache-blocks`` / ``--mmap`` tune serving;
  ``--verbose`` reports block-cache hit/miss counters).
* ``zsmiles fsck``        — scrub a packed corpus (``repro.store.fsck``): verify footers,
  every block CRC, manifest↔footer agreement and dictionary identities;
  ``--repair`` restores damaged shards from a healthy ``--replica`` (byte-identical)
  or re-packs them from the ``--source`` corpus (content-identical).
* ``zsmiles serve``       — serve a packed corpus over HTTP (``repro.server``): single
  records, batches and chunked range streams out of an async reader pool, with
  ``/stats`` + ``/healthz`` and graceful shutdown on SIGINT/SIGTERM.
* ``zsmiles serve-bench`` — measure single-get / batched-get serving latency of any
  corpus layout (flat, ``.zss``, sharded library, mmap, async pool); ``--json PATH``
  also writes the measurements machine-readably.
* ``zsmiles stats``       — report the compression ratio a dictionary achieves on a file.
* ``zsmiles generate``    — emit one of the synthetic datasets (for demos / tests).
* ``zsmiles experiment``  — regenerate one of the paper's tables / figures
  (``experiment table2 --via repack`` drives the matrix through real library
  re-packs instead of in-memory evaluation).
* ``zsmiles ingest``      — stream a raw SMILES dump through the curation pipeline
  (filters + dedup, bounded memory) into a clean ``.smi`` corpus.
* ``zsmiles train-dict``  — single-pass curation + bounded-sample dictionary
  training, pinning name/version/content-hash identity into the ``.dct``.
* ``zsmiles repack``      — migrate a packed library to a new dictionary
  (``repro.curation.repack``): decompress with the old, recompress with the new,
  ``--shard-jobs`` parallel, source untouched until the new manifest validates.
* ``zsmiles campaign``    — generative GA screening campaigns (``repro.campaign``):
  ``run`` a checkpointed campaign against any corpus tier (local library or
  ``http://`` replica list), ``resume`` after a kill to byte-identical results,
  ``status`` the per-generation counters, ``top-hits`` the best records.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .core.random_access import LineIndex, RandomAccessReader
from .core.streaming import SMI_SUFFIX, write_lines
from .datasets import exscalate, gdb17, mediate, mixed
from .datasets.io import read_smiles, write_smi
from .dictionary.prepopulation import PrePopulation
from .engine import BACKEND_CHOICES, ZSmilesEngine
from .library import (
    DEFAULT_POOL_SIZE,
    AsyncCorpusLibrary,
    CorpusLibrary,
    compose_libraries,
    is_packed_path,
    pack_library_file,
    resolve_manifest_path,
)
from .server.app import DEFAULT_HOST as SERVER_DEFAULT_HOST
from .server.app import DEFAULT_PORT as SERVER_DEFAULT_PORT
from .store import DEFAULT_CACHE_BLOCKS, CorpusStore, RecordReader, open_reader, pack_file
from .store.writer import DEFAULT_RECORDS_PER_BLOCK
from .experiments import (
    ExperimentScale,
    run_figure4,
    run_figure5,
    run_summary,
    run_table1,
    run_table2,
)

_DATASET_GENERATORS = {
    "gdb17": gdb17.generate,
    "mediate": mediate.generate,
    "exscalate": exscalate.generate,
    "mixed": mixed.generate,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``zsmiles`` entry point."""
    parser = argparse.ArgumentParser(
        prog="zsmiles",
        description="ZSMILES: dictionary-based, random-access SMILES compression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a dictionary from a .smi file")
    train.add_argument("input", type=Path, help="training .smi file")
    train.add_argument("-o", "--output", type=Path, required=True, help="output .dct path")
    train.add_argument("--lmin", type=int, default=2)
    train.add_argument("--lmax", type=int, default=8)
    train.add_argument("--max-entries", type=int, default=None)
    train.add_argument(
        "--prepopulation", default="smiles", choices=["smiles", "printable", "none"]
    )
    train.add_argument("--no-preprocessing", action="store_true",
                       help="disable ring-identifier renumbering")

    compress = sub.add_parser("compress", help="compress a .smi file to .zsmi")
    compress.add_argument("input", type=Path)
    compress.add_argument("-d", "--dictionary", type=Path, required=True)
    compress.add_argument("-o", "--output", type=Path, default=None)
    compress.add_argument("--no-preprocessing", action="store_true")
    compress.add_argument("--backend", choices=BACKEND_CHOICES, default="auto",
                          help="execution backend (auto picks the process pool "
                               "for large batches)")
    compress.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes for the process backend "
                               "(default: CPU count)")

    decompress = sub.add_parser("decompress", help="decompress a .zsmi file to .smi")
    decompress.add_argument("input", type=Path)
    decompress.add_argument("-d", "--dictionary", type=Path, required=True)
    decompress.add_argument("-o", "--output", type=Path, default=None)
    decompress.add_argument("--backend", choices=BACKEND_CHOICES, default="auto",
                            help="execution backend")
    decompress.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="worker processes for the process backend")

    index = sub.add_parser("index", help="build a random-access line index")
    index.add_argument("input", type=Path)
    index.add_argument("-o", "--output", type=Path, default=None)

    get = sub.add_parser("get", help="fetch records by line number (0-based)")
    get.add_argument("input", type=Path)
    get.add_argument("lines", type=int, nargs="+")
    get.add_argument("-d", "--dictionary", type=Path, default=None,
                     help="decompress records with this dictionary")
    get.add_argument("--index", type=Path, default=None, help="pre-built .zsx index")

    pack = sub.add_parser("pack", help="pack a .smi file into a block-compressed .zss store "
                                       "or (with --shards) a sharded library")
    pack.add_argument("input", type=Path)
    pack.add_argument("-d", "--dictionary", type=Path, required=True)
    pack.add_argument("-o", "--output", type=Path, default=None,
                      help="output .zss path (default: input with .zss suffix); with "
                           "--shards, the library directory (default: input with .library)")
    pack.add_argument("--shards", type=int, default=None, metavar="N",
                      help="pack into a sharded library of N .zss shards plus library.json")
    pack.add_argument("--block-size", type=int, default=DEFAULT_RECORDS_PER_BLOCK,
                      metavar="N", help="records per block (the random-access granularity)")
    pack.add_argument("--no-preprocessing", action="store_true")
    pack.add_argument("--no-embed-dictionary", action="store_true",
                      help="do not embed the dictionary in the store footer")
    pack.add_argument("--backend", choices=BACKEND_CHOICES, default="auto",
                      help="execution backend for block packing")
    pack.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes for the process backend")
    pack.add_argument("--shard-jobs", type=int, default=None, metavar="N",
                      help="with --shards: pack whole shards concurrently across "
                           "N processes (byte-identical to sequential packing)")

    compose = sub.add_parser(
        "compose",
        help="concatenate packed libraries into one library.json without repacking",
    )
    compose.add_argument("sources", type=Path, nargs="+",
                         help="source libraries in order: directories, library.json "
                              "manifests or bare .zss shards")
    compose.add_argument("-o", "--output", type=Path, required=True,
                         help="composed library directory (or explicit .json path); "
                              "must be a common ancestor of every source shard")

    unpack = sub.add_parser("unpack", help="expand a .zss store or sharded library "
                                           "back to a .smi file")
    unpack.add_argument("input", type=Path,
                        help=".zss store, library directory or library.json manifest")
    unpack.add_argument("-o", "--output", type=Path, default=None,
                        help="output .smi path (default: input with .smi suffix)")
    unpack.add_argument("-d", "--dictionary", type=Path, default=None,
                        help="dictionary override (default: the store's embedded one)")

    query = sub.add_parser("query", help="fetch records from a .zss store or sharded "
                                         "library by index (0-based)")
    query.add_argument("input", type=Path,
                       help=".zss store, library directory or library.json manifest")
    query.add_argument("indices", type=int, nargs="+")
    query.add_argument("-d", "--dictionary", type=Path, default=None,
                       help="dictionary override (default: the store's embedded one)")
    query.add_argument("--raw", action="store_true",
                       help="print stored (compressed) records without decoding")
    query.add_argument("--cache-blocks", type=int, default=DEFAULT_CACHE_BLOCKS,
                       metavar="N", help="blocks kept in the LRU cache "
                                         f"(default: {DEFAULT_CACHE_BLOCKS})")
    query.add_argument("--mmap", action="store_true",
                       help="serve block reads from a read-only memory map")
    query.add_argument("-v", "--verbose", action="store_true",
                       help="report block-cache hit/miss counters on stderr")

    fsck = sub.add_parser(
        "fsck",
        help="scrub a packed corpus: footers, block CRCs, manifest agreement "
             "and dictionary identities; optionally repair damaged shards",
    )
    fsck.add_argument("input", type=Path,
                      help=".zss store, library directory or library.json manifest")
    fsck.add_argument("--repair", action="store_true",
                      help="restore damaged shards from --replica / --source")
    fsck.add_argument("--replica", type=Path, default=None,
                      help="healthy replica of the same layout "
                           "(verbatim byte copy, verified clean first)")
    fsck.add_argument("--source", type=Path, default=None,
                      help="original .smi source corpus (content-identical "
                           "re-pack of the damaged record range)")
    fsck.add_argument("--json", action="store_true",
                      help="print the machine-readable report instead of the summary")

    serve = sub.add_parser(
        "serve",
        help="serve a packed corpus (.zss / library) over HTTP",
    )
    serve.add_argument("input", type=Path,
                       help=".zss store, library directory or library.json manifest")
    serve.add_argument("-d", "--dictionary", type=Path, default=None,
                       help="dictionary override (default: the store's embedded one)")
    serve.add_argument("--host", default=SERVER_DEFAULT_HOST,
                       help=f"bind address (default: {SERVER_DEFAULT_HOST})")
    serve.add_argument("--port", type=int, default=SERVER_DEFAULT_PORT,
                       help=f"bind port, 0 = ephemeral (default: {SERVER_DEFAULT_PORT})")
    serve.add_argument("--readers", type=int, default=DEFAULT_POOL_SIZE, metavar="N",
                       help="async reader-pool size = max concurrent block loads "
                            f"(default: {DEFAULT_POOL_SIZE})")
    serve.add_argument("--cache-blocks", type=int, default=DEFAULT_CACHE_BLOCKS,
                       metavar="N", help="shared LRU budget of cached blocks "
                                         f"(default: {DEFAULT_CACHE_BLOCKS})")
    serve.add_argument("--mmap", action="store_true",
                       help="serve block reads from read-only memory maps")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes behind one port (default 1: "
                            "in-process server; >1 pre-forks a fleet via "
                            "SO_REUSEPORT or a round-robin accept proxy)")
    serve.add_argument("--access-log", default=None, metavar="PATH",
                       help="append one JSON line per request to PATH "
                            "('-' = stdout; off by default)")

    serve_bench = sub.add_parser(
        "serve-bench",
        help="measure single-get and batched-get serving latency of a corpus",
    )
    serve_bench.add_argument("input", type=Path,
                             help="flat file, .zss store, library directory or manifest")
    serve_bench.add_argument("-d", "--dictionary", type=Path, default=None,
                             help="dictionary for flat compressed files / override")
    serve_bench.add_argument("--requests", type=int, default=256, metavar="N",
                             help="random single-get requests to time (default: 256)")
    serve_bench.add_argument("--batch-size", type=int, default=64, metavar="B",
                             help="indices per get_many batch (default: 64)")
    serve_bench.add_argument("--pool-size", type=int, default=4, metavar="P",
                             help="async reader-pool size (default: 4)")
    serve_bench.add_argument("--cache-blocks", type=int, default=DEFAULT_CACHE_BLOCKS,
                             metavar="N", help="LRU cache capacity for packed layouts")
    serve_bench.add_argument("--mmap", action="store_true",
                             help="serve packed block reads from a memory map")
    serve_bench.add_argument("--seed", type=int, default=0,
                             help="RNG seed for the request index sequence")
    serve_bench.add_argument("--json", type=Path, default=None, metavar="PATH",
                             help="also write the measurements as machine-readable "
                                  "JSON (requests/sec and us/request per mode)")

    stats = sub.add_parser(
        "stats",
        help="compression ratio of a dictionary on a file, or live telemetry "
             "of a running server (stats URL [--watch N])",
    )
    stats.add_argument("input", type=str,
                       help="input file — or a server URL for live registry stats")
    stats.add_argument("-d", "--dictionary", type=Path, default=None,
                       help="dictionary (required in file mode)")
    stats.add_argument("--no-preprocessing", action="store_true")
    stats.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                       help="URL mode: re-scrape every N seconds and render the "
                            "counter diff until interrupted")
    stats.add_argument("--json", action="store_true",
                       help="URL mode: print the raw metrics snapshot as JSON")

    generate = sub.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("dataset", choices=sorted(_DATASET_GENERATORS))
    generate.add_argument("count", type=int)
    generate.add_argument("-o", "--output", type=Path, required=True)
    generate.add_argument("--seed", type=int, default=0)

    experiment = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment.add_argument(
        "name", choices=["table1", "table2", "figure4", "figure5", "summary"]
    )
    experiment.add_argument("--scale", choices=["smoke", "benchmark", "paper"],
                            default="benchmark")
    experiment.add_argument("--via", choices=["engine", "repack"], default="engine",
                            help="table2 only: evaluate dictionaries in memory "
                                 "(engine) or through real library re-packs (repack)")

    ingest = sub.add_parser(
        "ingest",
        help="stream a raw SMILES dump through filters + dedup into a clean .smi",
    )
    ingest.add_argument("input", type=Path, help="raw line-oriented input file")
    ingest.add_argument("-o", "--output", type=Path, required=True,
                        help="curated .smi output path")
    _add_curation_options(ingest)
    ingest.add_argument("--stats-json", type=Path, default=None, metavar="PATH",
                        help="also write the per-stage accept/reject counters as JSON")

    train_dict = sub.add_parser(
        "train-dict",
        help="curate a stream, sample it and train a pinned dictionary in one pass",
    )
    train_dict.add_argument("input", type=Path, help="raw line-oriented input file")
    train_dict.add_argument("-o", "--output", type=Path, required=True,
                            help="output .dct path")
    _add_curation_options(train_dict)
    train_dict.add_argument("--sample", type=int, default=100_000, metavar="N",
                            help="bounded training-sample size (default: 100000)")
    train_dict.add_argument("--sampler", choices=["reservoir", "head"],
                            default="reservoir",
                            help="reservoir = uniform over the whole stream; "
                                 "head = first N records")
    train_dict.add_argument("--seed", type=int, default=0,
                            help="reservoir sampling seed")
    train_dict.add_argument("--name", default=None,
                            help="dictionary name pinned into the .dct metadata")
    train_dict.add_argument("--version", dest="dict_version", default=None,
                            help="dictionary version pinned into the .dct metadata")
    train_dict.add_argument("--lmin", type=int, default=2)
    train_dict.add_argument("--lmax", type=int, default=8)
    train_dict.add_argument("--max-entries", type=int, default=None)
    train_dict.add_argument(
        "--prepopulation", default="smiles", choices=["smiles", "printable", "none"]
    )
    train_dict.add_argument("--no-preprocessing", action="store_true",
                            help="disable ring-identifier renumbering")

    repack = sub.add_parser(
        "repack",
        help="re-pack a library with a new dictionary (source left untouched)",
    )
    repack.add_argument("input", type=Path,
                        help="source library: directory, library.json or .zss")
    repack.add_argument("-o", "--output", type=Path, required=True,
                        help="destination library directory (must differ from source)")
    repack.add_argument("-d", "--dictionary", type=Path, required=True,
                        help="the new dictionary (.dct)")
    repack.add_argument("--shards", type=int, default=None, metavar="N",
                        help="shard count of the new library (default: mirror source)")
    repack.add_argument("--block-size", type=int, default=None, metavar="N",
                        help="records per block (default: mirror source)")
    repack.add_argument("--shard-jobs", type=int, default=None, metavar="N",
                        help="pack whole shards concurrently across N processes")
    repack.add_argument("--no-verify", action="store_true",
                        help="skip the full readback comparison after packing")

    campaign = sub.add_parser(
        "campaign",
        help="generative GA screening campaigns over any corpus tier "
             "(local library or http:// replica list)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    camp_run = campaign_sub.add_parser(
        "run", help="start a new campaign and run it to its generation target"
    )
    camp_run.add_argument("source",
                          help="seed corpus: library dir, library.json, .zss, "
                               ".smi/.zsmi, http:// URL or comma-separated replicas")
    camp_run.add_argument("workdir", type=Path, help="campaign working directory")
    camp_run.add_argument("--population", type=int, default=64, metavar="N",
                          help="survivors per generation (default 64)")
    camp_run.add_argument("--generations", type=int, default=5, metavar="N",
                          help="evolution generations after the seed draw (default 5)")
    camp_run.add_argument("--seed", type=int, default=0, help="master campaign seed")
    camp_run.add_argument("--pocket", default="3CLpro",
                          help="scoring pocket name (default 3CLpro)")
    camp_run.add_argument("--crossover-rate", type=float, default=0.3)
    camp_run.add_argument("--immigrants", type=int, default=0, metavar="N",
                          help="fresh records sampled from the source each generation")
    camp_run.add_argument("--max-heavy-atoms", type=int, default=60, metavar="N")
    camp_run.add_argument("--score-jobs", type=int, default=4, metavar="N",
                          help="scoring thread-pool width (output-invariant)")
    camp_run.add_argument("--throttle", type=float, default=0.0, metavar="SECONDS",
                          help="sleep per generation before packing (pacing for "
                               "campaigns sharing a serving tier)")

    camp_resume = campaign_sub.add_parser(
        "resume", help="resume a checkpointed campaign to its generation target"
    )
    camp_resume.add_argument("workdir", type=Path)
    camp_resume.add_argument("--generations", type=int, default=None, metavar="N",
                             help="override (e.g. extend) the generation target")
    camp_resume.add_argument("--source", default=None,
                             help="replace the corpus source (e.g. new replica list)")

    camp_status = campaign_sub.add_parser(
        "status", help="print a campaign's checkpoint state and counters"
    )
    camp_status.add_argument("workdir", type=Path)

    camp_hits = campaign_sub.add_parser(
        "top-hits", help="best distinct records across the whole campaign"
    )
    camp_hits.add_argument("workdir", type=Path)
    camp_hits.add_argument("-n", "--count", type=int, default=16)

    return parser


def _add_curation_options(parser: argparse.ArgumentParser) -> None:
    """The shared ingest-pipeline flags of ``ingest`` and ``train-dict``."""
    parser.add_argument("--column", type=int, default=None, metavar="N",
                        help="take column N (0-based, whitespace-split) of each row")
    parser.add_argument("--canonicalize", action="store_true",
                        help="canonicalise through the SMILES parser/writer "
                             "(rejects unparsable records)")
    parser.add_argument("--no-largest-fragment", action="store_true",
                        help="keep multi-fragment records whole instead of "
                             "selecting the largest '.'-separated fragment")
    parser.add_argument("--drop-charged", action="store_true",
                        help="reject records containing charged bracket atoms")
    parser.add_argument("--min-length", type=int, default=1, metavar="N")
    parser.add_argument("--max-length", type=int, default=None, metavar="N")
    parser.add_argument("--min-carbons", type=int, default=0, metavar="N",
                        help="reject records with fewer than N carbon atoms")
    parser.add_argument("--no-dedup", action="store_true",
                        help="keep duplicate records")


def _load_engine(
    dictionary: Path,
    preprocessing: bool = True,
    backend: str = "auto",
    jobs: Optional[int] = None,
) -> ZSmilesEngine:
    return ZSmilesEngine.from_dictionary(
        dictionary, preprocessing=preprocessing, backend=backend, jobs=jobs
    )


def _scale_from_name(name: str) -> ExperimentScale:
    return {
        "smoke": ExperimentScale.smoke,
        "benchmark": ExperimentScale.benchmark,
        "paper": ExperimentScale.paper,
    }[name]()


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = read_smiles(args.input)
    engine = ZSmilesEngine.train(
        corpus,
        preprocessing=not args.no_preprocessing,
        prepopulation=PrePopulation.from_name(args.prepopulation),
        lmin=args.lmin,
        lmax=args.lmax,
        max_entries=args.max_entries,
    )
    engine.save_dictionary(args.output)
    report = engine.training_report
    if report is not None:
        print(report.summary())
    print(f"dictionary written to {args.output}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    with _load_engine(
        args.dictionary,
        preprocessing=not args.no_preprocessing,
        backend=args.backend,
        jobs=args.jobs,
    ) as engine:
        stats = engine.compress_file(args.input, args.output)
    print(
        f"compressed {stats.lines} records: {stats.input_bytes} -> {stats.output_bytes} bytes "
        f"(ratio {stats.ratio:.3f}) -> {stats.output_path}"
    )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    with _load_engine(args.dictionary, backend=args.backend, jobs=args.jobs) as engine:
        stats = engine.decompress_file(args.input, args.output)
    print(
        f"decompressed {stats.lines} records: {stats.input_bytes} -> {stats.output_bytes} bytes "
        f"-> {stats.output_path}"
    )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    index = LineIndex.build(args.input)
    output = args.output or LineIndex.default_path(args.input)
    index.save(output)
    print(f"indexed {index.line_count} records -> {output}")
    return 0


def _cmd_get(args: argparse.Namespace) -> int:
    codec = _load_engine(args.dictionary).codec if args.dictionary else None
    index = LineIndex.load(args.index) if args.index else None
    reader = RandomAccessReader(args.input, index=index, codec=codec)
    with reader:
        for line_no in args.lines:
            print(reader.line(line_no))
    return 0


def _open_corpus(
    path: Path,
    codec=None,
    cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    use_mmap: bool = False,
):
    """Open a packed corpus: a library (directory / manifest) or one ``.zss``."""
    if resolve_manifest_path(path) is not None:
        return CorpusLibrary.open(
            path, codec=codec, cache_blocks=cache_blocks, use_mmap=use_mmap
        )
    return CorpusStore(path, codec=codec, cache_blocks=cache_blocks, use_mmap=use_mmap)


def _cmd_pack(args: argparse.Namespace) -> int:
    if args.block_size < 1:
        print("error: --block-size must be >= 1", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.shard_jobs is not None:
        if args.shard_jobs < 1:
            print("error: --shard-jobs must be >= 1", file=sys.stderr)
            return 2
        if args.shards is None:
            print("error: --shard-jobs requires --shards", file=sys.stderr)
            return 2
    with _load_engine(
        args.dictionary,
        preprocessing=not args.no_preprocessing,
        backend=args.backend,
        jobs=args.jobs,
    ) as engine:
        if args.shards is not None:
            library = pack_library_file(
                args.input,
                args.output,
                engine=engine,
                shards=args.shards,
                records_per_block=args.block_size,
                embed_dictionary=not args.no_embed_dictionary,
                shard_jobs=args.shard_jobs,
            )
            print(
                f"packed {library.records} records into {library.shard_count} shards "
                f"/ {library.blocks} blocks ({args.block_size}/block): "
                f"{library.original_bytes} -> {library.payload_bytes} payload bytes "
                f"(ratio {library.ratio:.3f}), {library.file_bytes} bytes on disk "
                f"-> {library.manifest_path}"
            )
            return 0
        info = pack_file(
            args.input,
            args.output,
            engine=engine,
            records_per_block=args.block_size,
            embed_dictionary=not args.no_embed_dictionary,
        )
    print(
        f"packed {info.records} records into {info.blocks} blocks "
        f"({info.records_per_block}/block): {info.original_bytes} -> "
        f"{info.payload_bytes} payload bytes (ratio {info.ratio:.3f}), "
        f"{info.file_bytes} bytes on disk -> {info.path}"
    )
    return 0


def _cmd_unpack(args: argparse.Namespace) -> int:
    codec = _load_engine(args.dictionary).codec if args.dictionary else None
    output = args.output or args.input.with_suffix(SMI_SUFFIX)
    with _open_corpus(args.input, codec=codec) as store:
        count = write_lines(output, store.iter_all())
    print(f"unpacked {count} records -> {output}")
    return 0


def _corpus_dictionary_identity(store):
    """The dictionary identity of an opened corpus, or ``None``.

    Libraries answer from their manifest; a bare ``.zss`` store answers
    from the dictionary embedded in its first shard footer.
    """
    from .dictionary.serialization import DictionaryIdentity, loads
    from .store import DICTIONARY_META_KEY

    if hasattr(store, "dictionary_identity"):
        identity = store.dictionary_identity()
        if identity is not None:
            return identity
    shards = getattr(store, "shards", None)
    if shards:
        text = shards[0].metadata.get(DICTIONARY_META_KEY)
        if isinstance(text, str) and text:
            return DictionaryIdentity.of(loads(text))
    return None


def _cmd_query(args: argparse.Namespace) -> int:
    if args.cache_blocks < 1:
        print("error: --cache-blocks must be >= 1", file=sys.stderr)
        return 2
    codec = _load_engine(args.dictionary).codec if args.dictionary else None
    with _open_corpus(
        args.input,
        codec=codec,
        cache_blocks=args.cache_blocks,
        use_mmap=args.mmap,
    ) as store:
        for index in args.indices:
            print(store.get_raw(index) if args.raw else store.get(index))
        if args.verbose:
            identity = _corpus_dictionary_identity(store)
            if identity is not None:
                print(f"dictionary: {identity.label()}", file=sys.stderr)
            stats = (
                store.cache_stats()
                if hasattr(store, "cache_stats")
                # CorpusStore: per-shard private caches; aggregate them.
                else {
                    key: sum(shard.cache_stats()[key] for shard in store.shards)
                    for key in ("hits", "misses", "capacity", "cached_blocks")
                }
            )
            lookups = stats["hits"] + stats["misses"]
            hit_rate = stats["hits"] / lookups if lookups else 0.0
            print(
                f"cache: {stats['hits']} hits, {stats['misses']} misses "
                f"({hit_rate:.1%} hit rate), "
                f"{stats['cached_blocks']}/{stats['capacity']} blocks resident",
                file=sys.stderr,
            )
            if hasattr(store, "quarantine_stats"):
                quarantine = store.quarantine_stats()
                print(
                    f"quarantine: {quarantine['quarantined_blocks']} blocks, "
                    f"{quarantine['quarantine_hits']} hits",
                    file=sys.stderr,
                )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json as _json

    from .store.fsck import fsck_path, repair_path

    if args.repair:
        result = repair_path(args.input, replica=args.replica, source=args.source)
        report = result.after
        if args.json:
            payload = {
                "before": result.before.as_dict(),
                "after": result.after.as_dict(),
                "repaired": list(result.repaired),
                "failed": list(result.failed),
            }
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            for name in result.repaired:
                print(f"repaired {name}")
            for name in result.failed:
                print(f"could not repair {name}", file=sys.stderr)
            print(report.summary())
    else:
        report = fsck_path(args.input)
        if args.json:
            print(_json.dumps(report.as_dict(), indent=2, sort_keys=True))
        else:
            print(report.summary())
    return 0 if report.clean else 1


def _pipeline_from_args(args: argparse.Namespace):
    """Build the curation :class:`IngestPipeline` the shared flags describe."""
    from .curation import IngestPipeline, column_filter, default_filters

    filters = default_filters(
        canonicalize=args.canonicalize,
        largest_fragment=not args.no_largest_fragment,
        drop_charged=args.drop_charged,
        min_length=args.min_length,
        max_length=args.max_length,
        min_carbons=args.min_carbons,
    )
    if args.column is not None:
        filters.insert(1, column_filter(args.column))
    return IngestPipeline(filters, dedup=not args.no_dedup)


def _print_ingest_stats(stats) -> None:
    print(
        f"ingested {stats.lines_in} lines -> {stats.records_out} records "
        f"({stats.rejected_total()} rejected)"
    )
    for name, stage in stats.stages.items():
        print(f"  {name:<20} seen {stage.seen:>10}  rejected {stage.rejected:>10}")


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .curation import ingest_to_file

    pipeline = _pipeline_from_args(args)
    stats = ingest_to_file(args.input, args.output, pipeline)
    _print_ingest_stats(stats)
    print(f"curated corpus -> {args.output}")
    if args.stats_json is not None:
        import json as _json

        args.stats_json.write_text(
            _json.dumps(stats.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote stats JSON -> {args.stats_json}")
    return 0


def _cmd_train_dict(args: argparse.Namespace) -> int:
    from .curation import identity_of, make_sampler, pin_identity, train_on_sample
    from .dictionary import serialization

    if args.sample < 1:
        print("error: --sample must be >= 1", file=sys.stderr)
        return 2
    pipeline = _pipeline_from_args(args)
    sampler = make_sampler(args.sampler, args.sample, seed=args.seed)
    engine, sampler = train_on_sample(
        pipeline.process(args.input),
        capacity=args.sample,
        sampler=sampler,
        preprocessing=not args.no_preprocessing,
        prepopulation=PrePopulation.from_name(args.prepopulation),
        lmin=args.lmin,
        lmax=args.lmax,
        max_entries=args.max_entries,
    )
    _print_ingest_stats(pipeline.stats)
    pinned = pin_identity(engine.table, name=args.name, version=args.dict_version)
    serialization.save(pinned, args.output)
    identity = identity_of(pinned)
    print(
        f"trained {len(pinned)} entries on a {len(sampler)}-record "
        f"{args.sampler} sample of {sampler.seen} curated records"
    )
    print(f"dictionary {identity.label()} written to {args.output}")
    return 0


def _cmd_repack(args: argparse.Namespace) -> int:
    from .curation import repack_library

    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.block_size is not None and args.block_size < 1:
        print("error: --block-size must be >= 1", file=sys.stderr)
        return 2
    if args.shard_jobs is not None and args.shard_jobs < 1:
        print("error: --shard-jobs must be >= 1", file=sys.stderr)
        return 2
    result = repack_library(
        args.input,
        args.output,
        args.dictionary,
        shards=args.shards,
        records_per_block=args.block_size,
        shard_jobs=args.shard_jobs,
        verify=not args.no_verify,
    )
    source_label = (
        result.source_identity.label() if result.source_identity else "unpinned"
    )
    info = result.info
    print(
        f"repacked {result.records} records: dictionary {source_label} -> "
        f"{result.target_identity.label()}"
    )
    print(
        f"  {info.shard_count} shards / {info.blocks} blocks, "
        f"{info.original_bytes} -> {info.payload_bytes} payload bytes "
        f"(ratio {info.ratio:.3f}) -> {result.manifest_path}"
    )
    if not args.no_verify:
        print("  full readback verified byte-identical to the source corpus")
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    manifest_path = compose_libraries(args.output, args.sources)
    with CorpusLibrary.open(manifest_path) as library:
        print(
            f"composed {len(args.sources)} sources into {library.shard_count} shards "
            f"/ {len(library)} records -> {manifest_path} (no shards repacked)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server.app import run_server

    if args.readers < 1:
        print("error: --readers must be >= 1", file=sys.stderr)
        return 2
    if args.cache_blocks < 1:
        print("error: --cache-blocks must be >= 1", file=sys.stderr)
        return 2
    if args.port < 0:
        print("error: --port must be >= 0", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    codec = _load_engine(args.dictionary).codec if args.dictionary else None
    return run_server(
        args.input,
        workers=args.workers,
        codec=codec,
        host=args.host,
        port=args.port,
        readers=args.readers,
        cache_blocks=args.cache_blocks,
        use_mmap=args.mmap,
        access_log=args.access_log,
    )


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import asyncio
    import random
    import time

    if args.requests < 1 or args.batch_size < 1 or args.pool_size < 1:
        print("error: --requests, --batch-size and --pool-size must be >= 1",
              file=sys.stderr)
        return 2
    if args.cache_blocks < 1:
        print("error: --cache-blocks must be >= 1", file=sys.stderr)
        return 2
    codec = _load_engine(args.dictionary).codec if args.dictionary else None
    packed = is_packed_path(args.input)

    def open_target() -> RecordReader:
        if packed:
            return _open_corpus(
                args.input, codec=codec,
                cache_blocks=args.cache_blocks, use_mmap=args.mmap,
            )
        return open_reader(args.input, codec=codec)

    with open_target() as reader:
        total = len(reader)
        if total == 0:
            print("error: corpus is empty", file=sys.stderr)
            return 2
        rng = random.Random(args.seed)
        indices = [rng.randrange(total) for _ in range(args.requests)]

        start = time.perf_counter()
        singles = [reader.get(i) for i in indices]
        single_s = time.perf_counter() - start

        batches = [indices[i : i + args.batch_size]
                   for i in range(0, len(indices), args.batch_size)]
        start = time.perf_counter()
        batched = [record for batch in batches for record in reader.get_many(batch)]
        batched_s = time.perf_counter() - start
        if batched != singles:
            print("error: batched reads disagree with single gets", file=sys.stderr)
            return 1

    label = f"{total} records, layout={'packed' if packed else 'flat'}"
    if args.mmap and packed:
        label += ", mmap"
    print(f"serve-bench: {args.input} ({label})")
    print(f"  single get : {args.requests} requests in {single_s * 1e3:8.2f} ms "
          f"({single_s / args.requests * 1e6:8.1f} us/req)")
    print(f"  get_many   : {len(batches)} batches of <= {args.batch_size} in "
          f"{batched_s * 1e3:8.2f} ms ({batched_s / args.requests * 1e6:8.1f} us/req)")

    def _mode(seconds: float) -> dict:
        seconds = max(seconds, 1e-9)
        return {
            "seconds": round(seconds, 6),
            "us_per_request": round(seconds / args.requests * 1e6, 2),
            "requests_per_sec": round(args.requests / seconds, 1),
        }

    modes = {"single_get": _mode(single_s), "get_many": _mode(batched_s)}

    if packed:
        async def run_async() -> tuple:
            async with AsyncCorpusLibrary.open(
                args.input, codec=codec, pool_size=args.pool_size,
                cache_blocks=args.cache_blocks, use_mmap=args.mmap,
            ) as library:
                start = time.perf_counter()
                records = await library.get_many(indices)
                return records, time.perf_counter() - start

        async_records, async_s = asyncio.run(run_async())
        if async_records != singles:
            print("error: async reads disagree with sync gets", file=sys.stderr)
            return 1
        print(f"  async pool : {args.requests} requests over {args.pool_size} readers in "
              f"{async_s * 1e3:8.2f} ms ({async_s / args.requests * 1e6:8.1f} us/req)")
        modes["async_pool"] = _mode(async_s)

    if args.json is not None:
        import json as _json

        payload = {
            "benchmark": "serve_bench",
            "input": str(args.input),
            "layout": "packed" if packed else "flat",
            "mmap": bool(args.mmap and packed),
            "records": total,
            "requests": args.requests,
            "batch_size": args.batch_size,
            "pool_size": args.pool_size if packed else None,
            "seed": args.seed,
            "modes": modes,
        }
        args.json.write_text(
            _json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"  wrote JSON -> {args.json}")
    return 0


def _flatten_metrics_snapshot(snapshot: dict) -> dict:
    """``/metrics?format=json`` → ``{series key: scalar}`` for diff rendering.

    Counters and gauges flatten to their value; histograms to ``_count``
    and ``_sum`` series (the distribution itself lives in the Prometheus
    text exposition — the watch view tracks movement, not shape).
    """
    flat: dict = {}
    for item in snapshot.get("metrics", []):
        label_names = item.get("labels", [])
        for entry in item.get("series", []):
            labels = ",".join(
                f"{n}={v}" for n, v in zip(label_names, entry["values"])
            )
            key = f"{item['name']}{{{labels}}}" if labels else item["name"]
            if item["kind"] == "histogram":
                flat[key + ":count"] = entry["count"]
                flat[key + ":sum"] = round(entry["sum"], 6)
            else:
                flat[key] = entry["value"]
    return flat


def _print_metrics_diff(flat: dict, previous: Optional[dict]) -> None:
    """First call prints absolute non-zero series; later calls print deltas."""
    if previous is None:
        for key in sorted(flat):
            if flat[key]:
                print(f"{key} {flat[key]:g}")
        return
    changed = sorted(k for k in flat if flat[k] != previous.get(k, 0))
    if not changed:
        print("(no change)")
        return
    for key in changed:
        delta = flat[key] - previous.get(key, 0)
        print(f"{key} {flat[key]:g} (+{delta:g})")


def _cmd_server_stats(args: argparse.Namespace) -> int:
    """``zsmiles stats URL [--watch N] [--json]``: live registry telemetry."""
    import json as _json
    import time as _time

    from .server.client import CorpusClient

    with CorpusClient(args.input) as client:
        if args.json:
            print(_json.dumps(client.metrics_snapshot(), indent=2, sort_keys=True))
            return 0
        flat = _flatten_metrics_snapshot(client.metrics_snapshot())
        _print_metrics_diff(flat, None)
        if args.watch is None:
            return 0
        if args.watch <= 0:
            print("error: --watch must be > 0", file=sys.stderr)
            return 2
        try:
            while True:
                _time.sleep(args.watch)
                current = _flatten_metrics_snapshot(client.metrics_snapshot())
                print(f"--- {_time.strftime('%H:%M:%S')}")
                _print_metrics_diff(current, flat)
                flat = current
        except KeyboardInterrupt:
            return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .server.protocol import is_url

    if is_url(args.input):
        return _cmd_server_stats(args)
    if args.dictionary is None:
        print("error: -d/--dictionary is required for file inputs", file=sys.stderr)
        return 2
    corpus = read_smiles(Path(args.input))
    with _load_engine(args.dictionary, preprocessing=not args.no_preprocessing) as engine:
        stats = engine.evaluate(corpus)
    print(f"records:            {stats.lines}")
    print(f"original bytes:     {stats.original_bytes}")
    print(f"compressed bytes:   {stats.compressed_bytes}")
    print(f"compression ratio:  {stats.ratio:.3f}")
    print(f"escape fraction:    {stats.escape_fraction:.4f}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = _DATASET_GENERATORS[args.dataset]
    smiles = generator(args.count, seed=args.seed) if args.dataset != "mixed" else generator(
        args.count, seed=args.seed
    )
    write_smi(args.output, smiles)
    print(f"wrote {len(smiles)} {args.dataset} records to {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = _scale_from_name(args.scale)
    if args.name == "table1":
        print(run_table1(scale=scale).to_table().to_text())
    elif args.name == "table2":
        print(run_table2(scale=scale, via=args.via).to_table().to_text())
    elif args.name == "figure4":
        print(run_figure4(scale=scale).to_table().to_text())
    elif args.name == "figure5":
        for table in run_figure5(scale=scale).to_tables():
            print(table.to_text())
            print()
    else:
        summary = run_summary(scale=scale)
        print(summary.claims.to_table().to_text())
    return 0


def _print_campaign_state(state) -> None:
    print(f"campaign   : {state.name}")
    print(f"source     : {state.source}")
    print(f"seed       : {state.seed}")
    print(f"generation : {state.generation} (last completed)")
    print(f"dictionary : {state.dictionary_hash[:12] or '-'}")
    print(f"composed   : {state.composed_manifest}")
    for key, value in state.counters().items():
        print(f"  {key:<16} {value}")
    for stats in state.generations:
        print(
            f"  gen {stats.generation:>3}: scored={stats.scored:<5} "
            f"survivors={stats.survivors:<5} rejected={stats.rejected:<4} "
            f"best={stats.best_score:.4f} mean={stats.mean_score:.4f} "
            f"({stats.elapsed_seconds:.2f}s)"
        )


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignConfig,
        CampaignDriver,
        campaign_status,
        campaign_top_hits,
    )

    if args.campaign_command == "run":
        config = CampaignConfig(
            population_size=args.population,
            generations=args.generations,
            seed=args.seed,
            pocket=args.pocket,
            crossover_rate=args.crossover_rate,
            immigrants=args.immigrants,
            max_heavy_atoms=args.max_heavy_atoms,
            score_jobs=args.score_jobs,
            throttle=args.throttle,
        )
        with CampaignDriver.start(args.source, args.workdir, config) as driver:
            state = driver.run()
        _print_campaign_state(state)
        return 0
    if args.campaign_command == "resume":
        with CampaignDriver.resume(args.workdir, source=args.source) as driver:
            state = driver.run(args.generations)
        _print_campaign_state(state)
        return 0
    if args.campaign_command == "status":
        _print_campaign_state(campaign_status(args.workdir))
        return 0
    # top-hits
    for smiles, score in campaign_top_hits(args.workdir, args.count):
        print(f"{score:12.6f}  {smiles}")
    return 0


_HANDLERS = {
    "train": _cmd_train,
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "index": _cmd_index,
    "get": _cmd_get,
    "pack": _cmd_pack,
    "compose": _cmd_compose,
    "unpack": _cmd_unpack,
    "query": _cmd_query,
    "fsck": _cmd_fsck,
    "serve": _cmd_serve,
    "serve-bench": _cmd_serve_bench,
    "stats": _cmd_stats,
    "generate": _cmd_generate,
    "experiment": _cmd_experiment,
    "ingest": _cmd_ingest,
    "train-dict": _cmd_train_dict,
    "repack": _cmd_repack,
    "campaign": _cmd_campaign,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the ``zsmiles`` console script."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handler = _HANDLERS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
