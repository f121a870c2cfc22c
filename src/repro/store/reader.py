"""Reading records back out of ``.zss`` shards.

:class:`ShardReader` serves one shard with O(1) record → block lookup
(``record // records_per_block``) behind the same
:class:`~repro.store.protocol.RecordReader` surface as the flat
:class:`~repro.core.random_access.RandomAccessReader`.  A corpus of several
shards is a :class:`~repro.library.CorpusLibrary`.

The block is the unit of I/O, of integrity checking and of caching, but not
of decoding.  A cache miss reads the block's ``length`` bytes at its
footer-recorded offset (never the whole file), checks the CRC-32 and splits
the payload into its stored records — once per block load.  The cached entry
holds those verified stored records plus the records decoded so far: a
record decodes the first time it is read and is kept, so ``get(i)`` decodes
one line, a warm hot set decodes nothing, and block-wise readers (``slice``,
``iter_all`` and everything built on them) look each block up once and
decode its missing records in one kernel call.  ``get_raw`` serves the
stored records of the same entry, so a reader has one cache and one budget.
``probe`` and ``cached_spans`` read the cache without any I/O, so an event
loop can serve cached records itself (see
:class:`~repro.library.AsyncCorpusLibrary`).

A reader serves concurrent loads from many threads.  A shard it opened from
a path is read positionally (``os.pread``), so loads do not serialize on a
seek position and the syscall runs without the GIL; a caller's file object
is read with ``seek`` + ``read`` under the reader's lock.

Records are independent (the paper's separable SMILES), so a record that
decodes is served even when another record of its block would raise
:class:`~repro.errors.DecompressionError`.  The
:attr:`ShardReader.blocks_decoded` / :attr:`ShardReader.bytes_read` counters
count block loads and make the one-block property testable.  Records decode
through the flat-array kernel (:class:`~repro.engine.kernel.BlockKernel`),
byte-identical to the per-line reference decompressor.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import BinaryIO, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.codec import ZSmilesCodec
from ..dictionary import serialization
from ..errors import BlockCorruptionError, RandomAccessError, StoreFormatError
from ..telemetry import metrics as _metrics
from .format import (
    DICTIONARY_HASH_META_KEY,
    DICTIONARY_META_KEY,
    StoreFooter,
    decode_payload,
    payload_crc,
    read_footer,
)

PathLike = Union[str, Path]

#: Default number of blocks kept in the LRU cache.
DEFAULT_CACHE_BLOCKS = 16

class CachedBlock:
    """One cached block: its verified stored records, and its records decoded
    so far (``None`` where not yet decoded; the stored list itself when the
    reader has no codec).

    ``complete`` marks a block whose records are all decoded, so a warm range
    skips the scan for missing ones.  Only a reader that has just seen every
    record of the block decoded sets it; decoded records never go back to
    ``None``, so the marker only moves from ``False`` to ``True`` and needs
    no lock.
    """

    __slots__ = ("stored", "decoded", "complete")

    def __init__(self, stored: List[str], decoded: List[Optional[str]]):
        self.stored = stored
        self.decoded = decoded
        self.complete = decoded is stored


#: Records ``lo`` … ``hi`` (exclusive, block-relative) of one cached block.
CachedSpan = Tuple[CachedBlock, int, int]


def checked_range(start: int, stop: int, total: int) -> Tuple[int, int]:
    """Validate the record range ``[start, stop)`` and clamp *stop* to *total*.

    The range contract of every reader tier, local and remote: a negative
    *start* or an inverted range, judged on the raw values, raises
    :class:`~repro.errors.RandomAccessError`; *stop* is clamped afterwards,
    so a range past the end is empty, not an error.
    """
    if start < 0 or stop < start:
        raise RandomAccessError(f"invalid slice [{start}, {stop})")
    return start, min(stop, total)


class BlockCache:
    """Thread-safe LRU cache mapping a block key -> its cached entry.

    Keys are arbitrary hashable values: a lone :class:`ShardReader` uses plain
    block numbers, while :class:`~repro.library.CorpusLibrary` shares one
    cache across its shards through :class:`BlockCacheView`, whose keys are
    ``(shard number, block)`` pairs — one capacity budget for the whole
    library.  :class:`ShardReader` stores one :class:`CachedBlock` per block.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise StoreFormatError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        registry = _metrics.get_registry()
        lookups = registry.counter(
            "zsmiles_cache_lookups_total",
            "Block cache lookups, by outcome",
            labels=("outcome",),
        )
        self._metric_hit = lookups.labels("hit")
        self._metric_miss = lookups.labels("miss")
        self._metric_evictions = registry.counter(
            "zsmiles_cache_evictions_total",
            "Cached blocks evicted by LRU pressure",
        )

    def get(self, key: Hashable) -> Optional[object]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._metric_miss.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._metric_hit.inc()
            return entry

    def find(self, key: Hashable) -> Optional[object]:
        """The entry for *key* (now the most recently used), or ``None``.

        Counts nothing: a caller that serves records from the entry counts
        them with :meth:`count_hits`, and one that finds nothing leaves the
        miss to the :meth:`get` that loads the block.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def count_hits(self, n: int) -> None:
        """Count *n* hits: records served from entries already looked up."""
        if n > 0:
            with self._lock:
                self.hits += n
            self._metric_hit.inc(n)

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._metric_evictions.inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, object]:
        """Hit/miss/occupancy snapshot (the shape ``/stats`` and the CLI report).

        ``hit_rate`` is ``hits / (hits + misses)`` — ``0.0`` before any
        lookup, so an idle cache never divides by zero.
        """
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "capacity": self.capacity,
                "cached_blocks": len(self._entries),
                "evictions": self.evictions,
                "hit_rate": round(self.hits / lookups, 6) if lookups else 0.0,
            }


class BlockCacheView:
    """A namespaced window onto a shared :class:`BlockCache`.

    Every shard of a sharded library gets its own view over the one shared
    cache, so N shards compete for a single LRU budget instead of each
    hoarding ``cache_blocks`` entries.  Hit/miss counters are the shared
    cache's aggregates.
    """

    def __init__(self, shared: BlockCache, namespace: Hashable):
        self.shared = shared
        self.namespace = namespace

    def get(self, key: Hashable) -> Optional[object]:
        return self.shared.get((self.namespace, key))

    def find(self, key: Hashable) -> Optional[object]:
        return self.shared.find((self.namespace, key))

    def count_hits(self, n: int) -> None:
        self.shared.count_hits(n)

    def put(self, key: Hashable, value: object) -> None:
        self.shared.put((self.namespace, key), value)

    def __contains__(self, key: Hashable) -> bool:
        return (self.namespace, key) in self.shared

    def stats(self) -> Dict[str, int]:
        """The shared cache's aggregate snapshot (views share one budget)."""
        return self.shared.stats()


class RecordAccessMixin:
    """The bulk :class:`RecordReader` surface, derived from ``get``/``len``.

    Concrete readers implement ``get(index)``, ``__len__`` and ``slice`` (a
    block-wise range read, over :func:`checked_range`) and usually a
    smarter ``iter_all``; this mixin supplies the derived methods, so the
    protocol surface lives in one place.
    """

    def __getitem__(self, index: int) -> str:
        return self.get(index)  # type: ignore[attr-defined]

    def get_many(self, indices: Sequence[int]) -> List[str]:
        """Fetch several records, preserving request order."""
        return [self.get(i) for i in indices]  # type: ignore[attr-defined]

    def iter_all(self) -> Iterator[str]:
        """Iterate over every record in order."""
        for index in range(len(self)):  # type: ignore[arg-type]
            yield self.get(index)  # type: ignore[attr-defined]

    def sample(self, n: int, seed: Optional[int] = None) -> tuple:
        """Uniform random records without replacement: ``(indices, records)``.

        Mirrors the server's ``GET /records:sample`` exactly — the draw is
        ``random.Random(seed).sample`` over the index range, *n* clamped to
        the corpus size, indices returned sorted — so a campaign sampling
        through a local reader and one sampling over HTTP see the same
        records for the same seed.
        """
        if n < 0:
            raise RandomAccessError(f"sample size must be >= 0, got {n}")
        total = len(self)  # type: ignore[arg-type]
        rng = random.Random(seed)
        indices = sorted(rng.sample(range(total), min(n, total)))
        return indices, self.get_many(indices)


class _ShardFile:
    """One opening of a shard file: the handle and the reads in flight on it.

    A file the reader opened itself (*owned*) is read with ``os.pread``,
    outside the reader's lock; a caller's file object is read with ``seek``
    + ``read`` under it.  A file the reader has let go of (see
    :meth:`ShardReader.close`) is closed by whichever comes last of the
    close and its last read.
    """

    __slots__ = ("handle", "owned", "reads")

    def __init__(self, handle: BinaryIO, owned: bool):
        self.handle = handle
        self.owned = owned
        self.reads = 0

    def read(self, offset: int, length: int) -> bytes:
        if self.owned:
            return os.pread(self.handle.fileno(), length, offset)
        self.handle.seek(offset)
        return self.handle.read(length)

    def close(self) -> None:
        if self.owned:
            self.handle.close()


class ShardReader(RecordAccessMixin):
    """Random access to the records of one ``.zss`` shard.

    One reader serves concurrent loads from many threads.  A shard opened
    from a path is read with one ``os.pread`` per block, outside
    ``_io_lock``; a caller's file object — a ``BytesIO``, or a
    :class:`~repro.faults.io.FaultyFile` whose reads must not bypass it —
    keeps a shared seek position, so its ``seek`` + ``read`` run under the
    lock.  The lock guards only the (re)open, the close and the
    counters.  :meth:`close` never releases a file a read is still using:
    the last read in flight closes it.

    Parameters
    ----------
    source:
        Shard path or an open binary, seekable file object.
    codec:
        Codec used to decompress stored records.  When omitted, the shard's
        embedded dictionary (if any) builds one; with neither, records are
        returned as stored (compressed text), mirroring a codec-less
        :class:`~repro.core.random_access.RandomAccessReader`.
    cache_blocks:
        Blocks kept in the LRU cache (ignored when *cache* is given).
    cache:
        An externally owned cache (:class:`BlockCache` or
        :class:`BlockCacheView`) replacing the reader's private one, so
        several shards can share one LRU budget.
    """

    def __init__(
        self,
        source: Union[PathLike, BinaryIO],
        codec: Optional[ZSmilesCodec] = None,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        cache: Optional[Union[BlockCache, BlockCacheView]] = None,
    ):
        self.path: Optional[Path]
        if hasattr(source, "read"):
            self.path = None
            handle: BinaryIO = source  # type: ignore[assignment]
        else:
            self.path = Path(source)
            handle = open(self.path, "rb")
        self._io_lock = threading.Lock()
        try:
            self.footer: StoreFooter = read_footer(handle)
            self.codec = codec if codec is not None else self._embedded_codec()
            self._file: Optional[_ShardFile] = _ShardFile(handle, self.path is not None)
        except Exception:
            if self.path is not None:
                handle.close()
            raise
        self._cache = cache if cache is not None else BlockCache(cache_blocks)
        self._kernel = None  # lazy BlockKernel, rebuilt if the codec is swapped
        self.blocks_decoded = 0
        self.bytes_read = 0
        # Quarantine: blocks that failed an integrity check.  Re-reads fail
        # fast with the remembered error instead of re-touching the disk —
        # every record *outside* a quarantined block keeps serving.
        self._quarantined: Dict[int, str] = {}
        self.quarantine_hits = 0
        registry = _metrics.get_registry()
        self._metric_decode_seconds = registry.histogram(
            "zsmiles_store_block_decode_seconds",
            "Wall time of one cache-miss block load (read, check, split)",
        )
        self._metric_blocks_decoded = registry.counter(
            "zsmiles_store_blocks_decoded_total",
            "Blocks loaded from shards (read, checked, split)",
        )
        self._metric_reads = registry.counter(
            "zsmiles_store_reads_total",
            "Block payload reads, by I/O mode",
            labels=("io",),
        ).labels("handle")
        self._metric_read_bytes = registry.counter(
            "zsmiles_store_read_bytes_total",
            "Bytes read from shard payloads",
        )
        self._metric_quarantine = registry.counter(
            "zsmiles_store_quarantine_total",
            "Quarantine events, by kind",
            labels=("event",),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the shard file (idempotent; the cache stays warm).

        A path-backed reader reopens on its next block load.  A file that
        reads are still using is closed by the last of those reads.
        """
        with self._io_lock:
            file, self._file = self._file, None
            if file is not None and not file.reads:
                file.close()

    def __enter__(self) -> "ShardReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Shard properties
    # ------------------------------------------------------------------ #
    @property
    def records_per_block(self) -> int:
        return self.footer.records_per_block

    @property
    def block_count(self) -> int:
        return self.footer.block_count

    @property
    def metadata(self) -> Dict[str, object]:
        return self.footer.metadata

    def cache_stats(self) -> Dict[str, int]:
        """Block cache counters (the shared aggregates for a library's shard)."""
        return self._cache.stats()

    def quarantine_stats(self) -> Dict[str, object]:
        """Quarantined-block counters: degraded-read observability.

        ``quarantined_blocks`` counts distinct blocks that failed integrity
        checks; ``quarantine_hits`` counts reads refused fast because their
        block was already quarantined; ``blocks`` lists the damaged block
        indices in order.  ``total_blocks_quarantined`` duplicates the count
        so the single-shard shape rolls up the same way the multi-shard
        tiers' payloads do.
        """
        with self._io_lock:
            return {
                "quarantined_blocks": len(self._quarantined),
                "total_blocks_quarantined": len(self._quarantined),
                "quarantine_hits": self.quarantine_hits,
                "blocks": sorted(self._quarantined),
            }

    def __len__(self) -> int:
        return self.footer.total_records

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def block_of(self, index: int) -> int:
        """Block number holding record *index* (O(1))."""
        if not 0 <= index < len(self):
            raise RandomAccessError(f"record {index} out of range [0, {len(self)})")
        return index // self.records_per_block

    def get(self, index: int) -> str:
        """The record at *index*, decompressed when a codec is available.

        Decodes this one record the first time it is read; its block is
        loaded only on a cache miss.
        """
        block = self.block_of(index)
        return self._record(self._cached_block(block), index - block * self.records_per_block)

    def probe(self, index: int) -> Optional[str]:
        """The record at *index* if its block is cached, else ``None``.

        Touches only the cache and the re-entrant decode path: it does no
        I/O and no quarantine check (a quarantined block is never cached),
        so an event loop may call it.  A hit counts one cache hit; a miss
        counts nothing, leaving it to the :meth:`get` that loads the block.
        """
        block = self.block_of(index)
        entry = self._cache.find(block)
        if entry is None:
            return None
        self._cache.count_hits(1)
        return self._record(entry, index - block * self.records_per_block)  # type: ignore[arg-type]

    def get_raw(self, index: int) -> str:
        """The stored (compressed) record at *index* (LRU-cached per block)."""
        block = self.block_of(index)
        return self._cached_block(block).stored[index - block * self.records_per_block]

    def slice(self, start: int, stop: int) -> List[str]:
        """Records ``start`` (inclusive) to ``stop`` (exclusive, clamped).

        Read block by block: each block is looked up once and its missing
        records decode in one kernel call.  The cache counts what the single
        gets would: a miss for a block this loads, a hit for every other
        record.
        """
        start, stop = checked_range(start, stop, len(self))
        records: List[str] = []
        for block, lo, hi in self._block_spans(start, stop):
            entry = self._cached_block(block)
            self._cache.count_hits(hi - lo - 1)
            records += self._decode_span(entry, lo, hi)
        return records

    def cached_spans(self, start: int, stop: int) -> Optional[List[CachedSpan]]:
        """The cached blocks holding records ``start`` … ``stop``, or ``None``.

        ``None`` as soon as one block is not cached.  Like :meth:`probe` it
        does no I/O, and it counts nothing: :meth:`decode_spans` counts the
        records it serves from the spans as hits.
        """
        spans: List[CachedSpan] = []
        for block, lo, hi in self._block_spans(start, stop):
            entry = self._cache.find(block)
            if entry is None:
                return None
            spans.append((entry, lo, hi))  # type: ignore[arg-type]
        return spans

    def decode_spans(self, spans: Sequence[CachedSpan]) -> List[str]:
        """The records of *spans* (see :meth:`cached_spans`), one hit each."""
        records: List[str] = []
        for entry, lo, hi in spans:
            records += self._decode_span(entry, lo, hi)
        self._cache.count_hits(len(records))
        return records

    def iter_all(self) -> Iterator[str]:
        """Iterate over every record in order, one block at a time.

        A block's not-yet-decoded records decode in one kernel call.
        """
        for block in range(self.block_count):
            entry = self._cached_block(block)
            yield from self._decode_span(entry, 0, len(entry.stored))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _embedded_codec(self) -> Optional[ZSmilesCodec]:
        text = self.footer.metadata.get(DICTIONARY_META_KEY)
        if not isinstance(text, str) or not text:
            return None
        table = serialization.loads(text, source=self.path)
        declared = self.footer.metadata.get(DICTIONARY_HASH_META_KEY)
        if isinstance(declared, str) and declared:
            # A shard that pins its dictionary hash must embed that exact
            # dictionary — disagreement means the footer was spliced or the
            # embedded text edited, and decoding would produce garbage.
            serialization.verify_identity(table, declared, source=self.path)
        return ZSmilesCodec(table)

    def _read(self, offset: int, length: int) -> bytes:
        """*length* bytes at *offset*, reopening a closed path-backed shard."""
        with self._io_lock:
            file = self._file
            if file is None:
                if self.path is None:
                    raise StoreFormatError("cannot reopen a reader over a closed file object")
                file = self._file = _ShardFile(open(self.path, "rb"), True)
            if not file.owned:
                return file.read(offset, length)
            file.reads += 1
        try:
            return file.read(offset, length)
        finally:
            with self._io_lock:
                file.reads -= 1
                if file is not self._file and not file.reads:
                    file.close()  # close() let go of it during this read

    def _load_payload(self, block: int) -> List[str]:
        """Read and split one block payload (stored records, not decompressed)."""
        info = self.footer.blocks[block]
        payload = self._read(info.offset, info.length)
        self._metric_reads.inc()
        self._metric_read_bytes.inc(len(payload))
        if len(payload) != info.length:
            raise self._quarantine(block, f"block {block}: short read; truncated shard")
        if payload_crc(payload) != info.crc32:
            raise self._quarantine(
                block, f"block {block}: checksum mismatch; corrupt shard"
            )
        with self._io_lock:
            self.bytes_read += len(payload)
        return decode_payload(payload, info.records)

    def _quarantine(self, block: int, message: str) -> BlockCorruptionError:
        """Remember *block* as damaged and build its typed error."""
        with self._io_lock:
            self._quarantined.setdefault(block, message)
        self._metric_quarantine.labels("quarantined").inc()
        return BlockCorruptionError(message, shard_path=self.path, block=block)

    def _check_quarantine(self, block: int) -> None:
        """Fail fast if *block* is already quarantined (no disk touch)."""
        with self._io_lock:
            message = self._quarantined.get(block)
            if message is None:
                return
            self.quarantine_hits += 1
        self._metric_quarantine.labels("hit").inc()
        raise BlockCorruptionError(message, shard_path=self.path, block=block)

    def _cached_block(self, block: int) -> CachedBlock:
        """The cache entry of *block*, loading the block on a miss.

        A load reads, checks and splits the payload once; records decode
        later, one by one as they are read.
        """
        entry = self._cache.get(block)
        if entry is not None:
            return entry  # type: ignore[return-value]
        self._check_quarantine(block)
        started = time.perf_counter()
        stored = self._load_payload(block)
        entry = CachedBlock(stored, stored if self.codec is None else [None] * len(stored))
        with self._io_lock:
            self.blocks_decoded += 1
        self._metric_blocks_decoded.inc()
        self._metric_decode_seconds.observe(time.perf_counter() - started)
        self._cache.put(block, entry)
        return entry

    def _block_spans(self, start: int, stop: int) -> Iterator[Tuple[int, int, int]]:
        """``(block, lo, hi)``: the block-relative records ``[start, stop)`` covers."""
        if start >= stop:
            return
        per = self.records_per_block
        for block in range(start // per, -(-stop // per)):
            base = block * per
            yield block, max(start, base) - base, min(stop, base + per) - base

    def _record(self, entry: CachedBlock, offset: int) -> str:
        """Record *offset* of a cached block, decoded on its first read."""
        decoded = entry.decoded
        record = decoded[offset]
        if record is None:
            record = decoded[offset] = self._decompress([entry.stored[offset]])[0]
        return record

    def _decode_span(self, entry: CachedBlock, lo: int, hi: int) -> List[str]:
        """Records ``lo`` … ``hi`` of a cached block; the missing ones decode
        in one kernel call, and a complete block skips the scan for them."""
        decoded = entry.decoded
        if not entry.complete:
            stored = entry.stored
            missing = [k for k in range(lo, hi) if decoded[k] is None]
            if missing:
                for k, record in zip(missing, self._decompress([stored[k] for k in missing])):
                    decoded[k] = record
            if lo == 0 and hi == len(decoded):
                entry.complete = True  # this span has seen every record decoded
        return decoded[lo:hi]  # type: ignore[return-value]

    def _decompress(self, stored: List[str]) -> List[str]:
        """Decode stored records through the flat-array kernel (reference parity).

        The kernel is compiled lazily from the reader's codec and rebuilt if
        the ``codec`` attribute is swapped; its decompression path is
        re-entrant, so concurrent decodes can share it.
        """
        kernel = self._kernel
        if kernel is None or kernel.codec is not self.codec:
            from ..engine.kernel import BlockKernel

            kernel = self._kernel = BlockKernel(self.codec)
        return kernel.decompress_block(stored)


def quarantine_rollup(
    shards: Iterable[Tuple[Hashable, Iterable[int]]], hits: int
) -> Dict[str, object]:
    """The multi-shard ``quarantine_stats()`` payload.

    *shards* holds ``(shard key, quarantined blocks)`` pairs.  A key repeats
    only across fleet workers, each serving its own reader of the same
    shard; their blocks union per key, so a block two workers both
    quarantined counts once.  *hits* is the summed ``quarantine_hits``.
    Keys without blocks are left out.
    """
    union: Dict[Hashable, set] = {}
    for key, blocks in shards:
        if blocks:
            union.setdefault(key, set()).update(blocks)
    quarantined = sum(len(blocks) for blocks in union.values())
    return {
        "quarantined_blocks": quarantined,
        "total_blocks_quarantined": quarantined,
        "quarantine_hits": hits,
        "shards": {key: sorted(blocks) for key, blocks in union.items()},
    }


def read_store_records(source: Union[PathLike, BinaryIO], codec: Optional[ZSmilesCodec] = None) -> List[str]:
    """Eagerly read every record of one ``.zss`` shard (convenience helper)."""
    with ShardReader(source, codec=codec) as reader:
        return list(reader.iter_all())
