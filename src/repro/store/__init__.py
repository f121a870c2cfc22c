"""Block-compressed corpus store: the ``.zss`` container and its readers.

One ``.zss`` shard packs records into fixed-size blocks whose payloads are
the per-line codec output — byte-identical to the ``.zsmi`` path — framed
with a binary footer (block offsets, record counts, CRC-32 checksums) and
an optional embedded dictionary:

* :class:`ShardWriter` / :func:`pack_records` / :func:`pack_file` — pack a
  corpus through the :class:`~repro.engine.ZSmilesEngine` batch surface;
  ``backend="auto"`` / ``jobs`` parallelize packing across blocks,
* :class:`ShardReader` — one shard, from a path or an open file object:
  O(1) record → block lookup, thread-safe LRU-cached block decode
  (capacity via ``cache_blocks``), positional block reads that concurrent
  threads share, a CRC-32 check on every block load, ``get`` /
  ``get_many`` / ``slice`` / ``iter_all``,
* :class:`RecordReader` / :func:`open_reader` — the protocol every serving
  layer satisfies; ``open_reader`` dispatches by path shape.

This module is the *single-file* layer.  A corpus of any shape — one
``.zss`` shard or a sharded ``library.json`` corpus, with async serving —
is served by :class:`~repro.library.CorpusLibrary`, built on the shard
reader defined here; choosing a layout is covered by the serving guide in
:mod:`repro.library`.

Failure modes & recovery
------------------------

The storage layer assumes disks rot, writes tear, and replicas die; every
defect has a *typed* detection path, a degraded-service mode, and a repair:

**Bit rot inside a block payload**
    Detected on first read: the payload's CRC-32 disagrees with the
    footer's block table and the reader raises
    :class:`~repro.errors.BlockCorruptionError` naming the shard path and
    block index.  The block is *quarantined* — every other block of every
    shard keeps serving (``get``/``get_many``/``slice`` outside the bad
    block succeed normally) and repeat touches of the bad block fail fast
    without re-reading the disk.  ``quarantine_stats()`` (on
    :class:`ShardReader`, the libraries, and the server's ``/stats``
    payload) reports what is quarantined and how often it was hit.  Replica-aware clients treat the error as retryable
    (:func:`repro.server.protocol.is_retryable`): a read of a quarantined
    range fails over to a replica holding clean bytes, so the fleet as a
    whole self-heals the degraded read.

**Truncated shard (torn write, partial copy)**
    A cut inside the footer/trailer region fails
    :func:`~repro.store.format.read_footer`'s validation chain
    (:class:`~repro.errors.StoreFormatError` on open); a cut inside a
    block payload surfaces as a short read →
    :class:`~repro.errors.BlockCorruptionError` + quarantine, as above.

**Finding damage before consumers do**
    ``zsmiles fsck`` (:func:`repro.store.fsck.fsck_path`) scrubs any
    layout — shard, library directory, composed manifest — verifying
    footers, every block CRC, record counts, manifest↔footer agreement and
    dictionary identities; it reports typed
    :class:`~repro.store.fsck.FsckIssue` entries per shard/block.

**Repair**
    ``zsmiles fsck --repair`` (:func:`~repro.store.fsck.repair_path`)
    restores damaged shards from a healthy replica (verbatim byte copy,
    verified clean first — byte-identical restoration) or, when no replica
    holds the bytes, re-packs the damaged shard's record range from the
    source corpus with the dictionary embedded in a healthy sibling
    (content-identical; the manifest is refreshed to the new layout).

**Checkpoint durability** (campaign tier)
    ``campaign.json`` checkpoints are written tmp → fsync → rename →
    directory fsync, so a crash — process or machine — always leaves a
    complete checkpoint, previous or current.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".format": [
        "DICTIONARY_META_KEY", "MAGIC", "STORE_SUFFIX", "VERSION", "BlockInfo",
        "StoreFooter", "read_footer",
    ],
    ".fsck": ["FsckIssue", "FsckReport", "RepairResult", "fsck_path", "repair_path"],
    ".protocol": ["RecordReader", "open_reader"],
    ".reader": [
        "DEFAULT_CACHE_BLOCKS", "BlockCache", "BlockCacheView", "ShardReader",
        "read_store_records",
    ],
    ".writer": [
        "DEFAULT_RECORDS_PER_BLOCK", "ShardWriter", "StoreInfo",
        "pack_compressed_records", "pack_file", "pack_records",
    ],
})
