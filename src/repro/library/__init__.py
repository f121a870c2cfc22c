"""Sharded, async-capable corpus serving: the ``repro.library`` subsystem.

This package is the serving API for packed SMILES corpora.  Consumers —
the screening pipeline, dataset loaders, the CLI, experiments — open one
:class:`CorpusLibrary` (or :class:`AsyncCorpusLibrary`) instead of
hand-wiring readers, codecs and dictionaries.

Serving a corpus — which layout to use
======================================

Three local tiers and one network tier serve the same
:class:`~repro.store.protocol.RecordReader` protocol — pick by scale and
access pattern:

**Flat** (``.smi`` / ``.zsmi`` + ``.zsx`` sidecar index) —
:class:`~repro.core.random_access.RandomAccessReader`.  One seek per
record, an index entry per record.  Right for small corpora, debugging,
and line-oriented tooling; the documented fallback.

**One shard** (``.zss``) — :class:`~repro.store.ShardReader`, or
:meth:`CorpusLibrary.open` over the bare file.  Fixed-size blocks of codec
output with a footer index, CRC-32 checks, an LRU block cache and an
embeddable dictionary.  Right for any corpus that is packed once and
served many times from one process; ``ShardReader`` also reads an open
file object.

**Any packed corpus** (``library.json`` + N ``.zss`` shards, or one bare
``.zss``) — :class:`CorpusLibrary`.  The manifest routes global indices to
shards, shards open lazily, and all shards share one LRU cache budget.
Right at scale: corpora too big for one file, parallel packing, and concurrent
serving.  :class:`AsyncCorpusLibrary` wraps one :class:`CorpusLibrary`
and adds ``await get`` / ``get_many`` / ``stream``, with at most
``pool_size`` block loads on worker threads at once, for high-fanout
consumers (e.g. generative screening loops).

**Network service** (``http://host:port``) — :mod:`repro.server`.  A
``zsmiles serve`` process (or :class:`~repro.server.CorpusServer` embedded
in yours) mounts an :class:`AsyncCorpusLibrary` and speaks HTTP/1.1:
``GET /records/{i}``, ``POST /records:batch``, a chunked
``GET /records?start=&stop=`` range stream, ``/stats`` and ``/healthz``.
Right when consumers are *other processes or machines*: the corpus is
packed once, served by one process, and every consumer reads it through
:class:`~repro.server.CorpusClient` — or just ``open_reader("http://…")``,
which satisfies this same protocol.  The pool bound caps concurrent block
loads, so a burst of clients queues instead of thundering the disk.

Packing::

    engine = ZSmilesEngine.from_dictionary("shared.dct")
    info = pack_library("corpus.library", smiles, engine, shards=8)
    # or: zsmiles pack corpus.smi -d shared.dct --shards 8
    # on 4 worker processes when a pool repays its start (byte-identical):
    #     zsmiles pack corpus.smi -d shared.dct --shards 8 --shard-jobs 4
    # concatenate packed libraries without repacking (manifest-only):
    #     zsmiles compose corpora/batch-*.library -o corpora

Serving::

    with CorpusLibrary.open("corpus.library") as lib:      # sync
        lib.get(123), lib.get_many(batch), lib.slice(0, 100)

    async with AsyncCorpusLibrary.open("corpus.library") as lib:
        await lib.get_many(batch)                           # concurrent

    # over the network (zsmiles serve corpus.library --port 8765):
    with open_reader("http://127.0.0.1:8765") as remote:
        remote.get(123), remote.get_many(batch)

The block cache
===============

The block is the unit of I/O, of CRC checking and of caching, but not of
decoding.  A cache miss reads one block, checks its CRC-32 and splits it
into its stored records; the cached block holds those verified stored
records plus the records decoded so far.  A record decodes the first time
it is read and stays decoded, so a cold ``get`` decodes one record (not
its whole block) and a warm hot set decodes nothing; ``iter_all`` (and
unpack, repack and ``read_store_records``, which read through it) decodes
a block's missing records in one kernel call.  ``get_raw`` reads the same
entries: there is one cache and one budget, ``cache_blocks`` blocks,
shared by every shard of a library and every thread loading blocks for an
:class:`AsyncCorpusLibrary`.  Because records decode on their own, a
record is served even when another record of its block cannot be decoded
(a wrong codec override, or a hand-built shard).

Ranges are read block by block: ``slice`` looks each block up once and
decodes its missing records in one kernel call, so a warm range takes one
cache lookup per block, not one per record.  The cache still counts one
lookup per record served: a miss for each block a read loads, a hit for
every other record.

:class:`AsyncCorpusLibrary` serves a cached record on the event loop and
sends only block loads to worker threads.  Each read first probes the
cache through ``CorpusLibrary.probe`` / ``probe_slice``, which do no I/O:
no shard is opened, no block read and no quarantine checked (a quarantined
block is never cached), and a shard the library has not opened counts as
not cached.  A hit is served, and decoded if it is read for the first time,
on the loop; a miss counts nothing there, and the threaded read that loads
the block counts it.  ``get_many`` yields the loop between chunks of
``DEFAULT_STREAM_BATCH`` cached records, and fans only its misses out over
the pool; a range goes to a thread, in one hop, unless it is wholly
cached.

Migrating from ``open_reader``
==============================

:func:`repro.store.open_reader` remains the suffix-dispatching shim and
hands library directories, ``library.json`` paths and ``.zss`` files to
:meth:`CorpusLibrary.open`, so existing call sites gain sharded serving by
being pointed at a manifest — no code change.  New code that knows it is
serving packed corpora should call :meth:`CorpusLibrary.open` directly.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".async_api": [
        "DEFAULT_POOL_SIZE", "DEFAULT_STREAM_BATCH", "AsyncCorpusLibrary",
        "open_async_reader",
    ],
    ".compose": ["compose_libraries", "compose_manifests"],
    ".corpus": ["CorpusLibrary"],
    ".manifest": [
        "MANIFEST_FORMAT", "MANIFEST_NAME", "MANIFEST_VERSION", "LibraryManifest",
        "ShardEntry", "is_packed_path", "resolve_manifest_path",
    ],
    ".writer": [
        "SHARD_NAME_FORMAT", "LibraryInfo", "LibraryWriter", "pack_library",
        "pack_library_file", "split_counts",
    ],
})
