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
"""

from ._version import __version__
from .core.codec import CodecStats, ZSmilesCodec
from .core.compressor import Compressor, ParseStrategy
from .core.decompressor import Decompressor
from .core.random_access import LineIndex, RandomAccessReader
from .dictionary.codec_table import CodecTable
from .dictionary.generator import DictionaryConfig, train_dictionary
from .dictionary.prepopulation import PrePopulation
from .dictionary.serialization import load as load_dictionary
from .dictionary.serialization import save as save_dictionary
from .engine import (
    BaselineBackend,
    BatchResult,
    BlockKernel,
    CodecAutomaton,
    CompressionBackend,
    EngineConfig,
    KernelBackend,
    ProcessPoolBackend,
    SerialBackend,
    ZSmilesEngine,
    available_backends,
    register_backend,
)
from .library import (
    AsyncCorpusLibrary,
    CorpusLibrary,
    LibraryManifest,
    LibraryWriter,
    compose_libraries,
    pack_library,
    pack_library_file,
)
from .server import (
    AsyncCorpusClient,
    AsyncFailoverCorpusClient,
    BackgroundServer,
    CorpusClient,
    CorpusServer,
    FailoverCorpusClient,
    RetryPolicy,
    ServerFleet,
)
from .curation import (
    DictionaryIdentity,
    IngestPipeline,
    ReservoirSampler,
    pin_identity,
    repack_library,
)
from .campaign import (
    CampaignConfig,
    CampaignDriver,
    CampaignState,
    GenerationStats,
)
from .preprocess.pipeline import PreprocessingPipeline, make_pipeline
from .preprocess.ring_renumber import renumber_rings
from .store import (
    FsckReport,
    RecordReader,
    ShardReader,
    ShardWriter,
    StoreInfo,
    fsck_path,
    open_reader,
    pack_file,
    pack_records,
    repair_path,
)

__all__ = [
    "__version__",
    # Engine surface (preferred).
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
    # Sharded serving layer (library.json manifests, async surface).
    "AsyncCorpusLibrary",
    "CorpusLibrary",
    "LibraryManifest",
    "LibraryWriter",
    "compose_libraries",
    "pack_library",
    "pack_library_file",
    # Network serving front (HTTP server, fleet, typed clients).
    "AsyncCorpusClient",
    "AsyncFailoverCorpusClient",
    "BackgroundServer",
    "CorpusClient",
    "CorpusServer",
    "FailoverCorpusClient",
    "RetryPolicy",
    "ServerFleet",
    # Curation subsystem (streaming ingest, dictionary lifecycle, repack).
    "DictionaryIdentity",
    "IngestPipeline",
    "ReservoirSampler",
    "pin_identity",
    "repack_library",
    # Generative GA screening campaigns.
    "CampaignConfig",
    "CampaignDriver",
    "CampaignState",
    "GenerationStats",
    # Block-compressed corpus store (.zss) and the shared reader protocol.
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
    # Building blocks.
    "CodecStats",
    "ZSmilesCodec",
    "Compressor",
    "ParseStrategy",
    "Decompressor",
    "LineIndex",
    "RandomAccessReader",
    "CodecTable",
    "DictionaryConfig",
    "train_dictionary",
    "PrePopulation",
    "load_dictionary",
    "save_dictionary",
    "PreprocessingPipeline",
    "make_pipeline",
    "renumber_rings",
]
