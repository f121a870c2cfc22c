"""ZSMILES reproduction: efficient random-access SMILES storage for virtual screening.

The compression surface is unified behind the batch-first
:class:`~repro.engine.ZSmilesEngine`: one facade, configured by a single
:class:`~repro.engine.EngineConfig`, running on pluggable execution backends
(``"serial"``, the per-line oracle; ``"kernel"``; ``"process"``; or
``"auto"``, which picks the process pool for large batches).  Every batch
operation returns a :class:`~repro.engine.BatchResult` carrying the
transformed records, the aggregate :class:`~repro.core.codec.CodecStats` and
the wall time::

    from repro import EngineConfig, ZSmilesEngine

    engine = ZSmilesEngine.train(training_smiles, EngineConfig(lmax=8))
    result = engine.compress_batch(library)          # BatchResult
    engine.compress_file("library.smi")              # .smi -> .zsmi
    restored = engine.decompress_batch(result.records).records

Single-record helpers (``engine.compress`` / ``engine.decompress`` /
``engine.preprocess``) remain available for interactive use, and
``ZSmilesEngine.from_codec(codec)`` wraps an existing
:class:`~repro.core.codec.ZSmilesCodec`.  The lower-level subpackages
(``repro.smiles``, ``repro.core``, ``repro.dictionary``, ``repro.datasets``,
``repro.baselines``, ``repro.parallel``, ``repro.screening``,
``repro.experiments``) are the building blocks.

Corpora are served at scale from the block-compressed ``.zss`` store
(:mod:`repro.store`): ``pack_records`` / ``pack_file`` pack through the
engine (parallel across blocks), ``ShardReader`` serves ``get(i)`` by
decoding a single record of a single block, and the flat
``RandomAccessReader`` remains the documented fallback behind the shared
``RecordReader`` protocol (``open_reader`` picks by suffix).  Any packed
corpus — one ``.zss`` or a sharded ``library.json`` — serves through
``CorpusLibrary`` / ``AsyncCorpusLibrary`` (:mod:`repro.library`), and
``zsmiles serve`` exposes any packed corpus over HTTP
(:mod:`repro.server`) — ``open_reader("http://…")`` consumes it through the
same protocol.

Every name here, and in each subpackage, is imported on first use
(:mod:`repro._lazy`): ``import repro`` loads no subpackage, so a worker
process imports only the modules it runs.
"""

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "._version": ["__version__"],
    # Engine surface (preferred).
    ".engine": [
        "ZSmilesEngine",
        "EngineConfig",
        "BatchResult",
        "BlockKernel",
        "CodecAutomaton",
        "CompressionBackend",
        "KernelBackend",
        "SerialBackend",
        "ProcessPoolBackend",
        "BaselineBackend",
        "available_backends",
        "register_backend",
    ],
    # Sharded serving layer (library.json manifests, async surface).
    ".library": [
        "AsyncCorpusLibrary",
        "CorpusLibrary",
        "LibraryManifest",
        "LibraryWriter",
        "compose_libraries",
        "pack_library",
        "pack_library_file",
    ],
    # Network serving front (HTTP server, fleet, typed clients).
    ".server": [
        "AsyncCorpusClient",
        "AsyncFailoverCorpusClient",
        "BackgroundServer",
        "CorpusClient",
        "CorpusServer",
        "FailoverCorpusClient",
        "RetryPolicy",
        "ServerFleet",
    ],
    # Curation subsystem (streaming ingest, dictionary lifecycle, repack).
    ".curation": [
        "DictionaryIdentity",
        "IngestPipeline",
        "ReservoirSampler",
        "pin_identity",
        "repack_library",
    ],
    # Generative GA screening campaigns.
    ".campaign": ["CampaignConfig", "CampaignDriver", "CampaignState", "GenerationStats"],
    # Block-compressed corpus store (.zss) and the shared reader protocol.
    ".store": [
        "FsckReport",
        "RecordReader",
        "ShardReader",
        "ShardWriter",
        "StoreInfo",
        "fsck_path",
        "open_reader",
        "pack_file",
        "pack_records",
        "repair_path",
    ],
    # Building blocks.
    ".core.codec": ["CodecStats", "ZSmilesCodec"],
    ".core.compressor": ["Compressor", "ParseStrategy"],
    ".core.decompressor": ["Decompressor"],
    ".core.random_access": ["LineIndex", "RandomAccessReader"],
    ".dictionary.codec_table": ["CodecTable"],
    ".dictionary.generator": ["DictionaryConfig", "train_dictionary"],
    ".dictionary.prepopulation": ["PrePopulation"],
    ".dictionary.serialization": {"load_dictionary": "load", "save_dictionary": "save"},
    ".preprocess.pipeline": ["PreprocessingPipeline", "make_pipeline"],
    ".preprocess.ring_renumber": ["renumber_rings"],
})
