"""Serving records out of a sharded library: :class:`ShardedCorpusStore`.

The store is manifest-driven: ``len()`` and global-index → (shard, local)
routing come straight from ``library.json``, so *no* shard file is opened
until one of its records is actually requested (``open_shard_count`` makes
that observable).  All shards share one LRU block-cache budget through
:class:`~repro.store.reader.BlockCacheView` — a library of 64 shards under
``cache_blocks=16`` holds at most 16 blocks in memory, not 1024.

The class satisfies the :class:`~repro.store.protocol.RecordReader`
protocol, so everything that serves records (screening, dataset loaders,
the CLI) takes it interchangeably with ``CorpusStore`` and the flat
``RandomAccessReader``.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from ..core.codec import ZSmilesCodec
from ..errors import DictionaryMismatchError, ManifestError
from ..store.format import DICTIONARY_HASH_META_KEY
from ..store.reader import (
    DEFAULT_CACHE_BLOCKS,
    BlockCache,
    BlockCacheView,
    CachedSpan,
    RecordAccessMixin,
    ShardReader,
    checked_range,
    quarantine_rollup,
    split_range,
)
from .manifest import LibraryManifest, resolve_manifest_path

PathLike = Union[str, Path]


class ShardedCorpusStore(RecordAccessMixin):
    """One logical corpus served out of the N shards a manifest describes.

    Parameters
    ----------
    manifest:
        The library's routing table.
    root:
        Directory the manifest's relative shard names resolve against.
    codec:
        Codec override; per-shard embedded dictionaries are used when omitted.
    cache_blocks:
        Shared LRU budget: the maximum number of blocks cached across *all*
        shards together (ignored when *cache* is given).
    verify_checksums:
        Validate block CRC-32s when a block is loaded.
    use_mmap:
        Serve shard block reads from read-only memory maps.
    cache:
        An externally owned :class:`~repro.store.reader.BlockCache`
        replacing the store's private one, so several stores (e.g. an
        async reader pool) share one budget.  Entries are keyed by resolved
        shard path, so distinct libraries can share a cache safely —
        provided the sharers decode with the same codec.
    """

    def __init__(
        self,
        manifest: LibraryManifest,
        root: PathLike,
        codec: Optional[ZSmilesCodec] = None,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        verify_checksums: bool = True,
        use_mmap: bool = False,
        cache: Optional[BlockCache] = None,
    ):
        self.manifest = manifest
        self.root = Path(root)
        self._codec = codec
        self.verify_checksums = verify_checksums
        self.use_mmap = use_mmap
        self._cache = cache if cache is not None else BlockCache(cache_blocks)
        self._readers: List[Optional[ShardReader]] = [None] * manifest.shard_count
        self._starts = [shard.start for shard in manifest.shards]
        self._open_lock = threading.Lock()

    @classmethod
    def open(cls, path: PathLike, **kwargs: object) -> "ShardedCorpusStore":
        """Open a library from its directory or its ``library.json`` path."""
        manifest_path = resolve_manifest_path(path)
        if manifest_path is None:
            raise ManifestError(f"{path} is not a library directory or manifest")
        manifest = LibraryManifest.load(manifest_path)
        return cls(manifest, manifest_path.parent, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # Shard management
    # ------------------------------------------------------------------ #
    def shard(self, shard_no: int) -> ShardReader:
        """The (lazily opened) reader for shard *shard_no*."""
        reader = self._readers[shard_no]
        if reader is None:
            with self._open_lock:
                reader = self._readers[shard_no]
                if reader is None:
                    entry = self.manifest.shards[shard_no]
                    shard_path = self.root / entry.name
                    # Namespaced by resolved shard path, not shard number:
                    # two libraries handed the same external cache= must
                    # never collide on each other's block keys.
                    namespace = str(shard_path.resolve())
                    reader = ShardReader(
                        shard_path,
                        codec=self._codec,
                        verify_checksums=self.verify_checksums,
                        use_mmap=self.use_mmap,
                        cache=BlockCacheView(self._cache, namespace),
                    )
                    if len(reader) != entry.records:
                        actual = len(reader)
                        reader.close()
                        raise ManifestError(
                            f"shard {entry.name!r} holds {actual} records but the "
                            f"manifest promises {entry.records}"
                        )
                    self._check_shard_dictionary(reader, entry)
                    self._readers[shard_no] = reader
        return reader

    def _check_shard_dictionary(self, reader: ShardReader, entry) -> None:
        """Manifest-pinned dictionary hash must match the shard footer's.

        Cheap metadata comparison (no dictionary parse): catches a shard
        file swapped in from a library packed with a different dictionary.
        Skipped when the caller supplied an explicit codec override — that
        is a deliberate choice to decode with something else — or when
        either side predates hash pinning.
        """
        if self._codec is not None:
            return
        identity = self.manifest.dictionary_identity()
        if identity is None:
            return
        declared = reader.footer.metadata.get(DICTIONARY_HASH_META_KEY)
        if not isinstance(declared, str) or not declared:
            return
        if declared != identity.hash:
            reader.close()
            raise DictionaryMismatchError(
                f"shard {entry.name!r} was packed with dictionary "
                f"{declared[:12]} but the manifest pins "
                f"{identity.short_hash}: re-pack or fix the manifest"
            )

    def dictionary_identity(self):
        """The dictionary identity the manifest pins, or ``None``."""
        return self.manifest.dictionary_identity()

    @property
    def shard_count(self) -> int:
        return self.manifest.shard_count

    @property
    def open_shard_count(self) -> int:
        """How many shards have actually been opened (lazy-open observable)."""
        return sum(1 for reader in self._readers if reader is not None)

    @property
    def cached_blocks(self) -> int:
        """Blocks currently held by the shared cache."""
        return len(self._cache)

    @property
    def cache_capacity(self) -> int:
        return self._cache.capacity

    @property
    def cache_hits(self) -> int:
        return self._cache.hits

    @property
    def cache_misses(self) -> int:
        return self._cache.misses

    def cache_stats(self) -> dict:
        """Hit/miss/occupancy snapshot of the shared block cache."""
        return self._cache.stats()

    def quarantine_stats(self) -> dict:
        """Quarantined-block counters aggregated across opened shards.

        A quarantined block is one whose integrity check failed; its reads
        raise :class:`~repro.errors.BlockCorruptionError` while every other
        block keeps serving.  Unopened shards contribute nothing — they
        have not been read, so nothing can be quarantined yet.
        """
        stats = [
            (entry.name, reader.quarantine_stats())
            for entry, reader in zip(self.manifest.shards, self._readers)
            if reader is not None
        ]
        return quarantine_rollup(
            ((name, s["blocks"]) for name, s in stats),
            sum(s["quarantine_hits"] for _, s in stats),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every opened shard (idempotent; shards reopen on demand)."""
        for reader in self._readers:
            if reader is not None:
                reader.close()

    def __enter__(self) -> "ShardedCorpusStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Access (RecordReader protocol)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.manifest.total_records

    def get(self, index: int) -> str:
        """The record at global *index*, routed through the manifest."""
        shard_no, local = self.manifest.locate(index)
        return self.shard(shard_no).get(local)

    def get_raw(self, index: int) -> str:
        """The stored (compressed) record at global *index*."""
        shard_no, local = self.manifest.locate(index)
        return self.shard(shard_no).get_raw(local)

    def slice(self, start: int, stop: int) -> List[str]:
        """Records ``start`` (inclusive) to ``stop`` (exclusive, clamped).

        Each shard's part is read block by block (:meth:`ShardReader.slice`).
        """
        start, stop = checked_range(start, stop, len(self))
        records: List[str] = []
        for shard_no, lo, hi in split_range(self._starts, start, stop):
            records += self.shard(shard_no).slice(lo, hi)
        return records

    # ------------------------------------------------------------------ #
    # Cache probes: no I/O, so an event loop may call them
    # ------------------------------------------------------------------ #
    def probe(self, index: int) -> Optional[str]:
        """The record at global *index* if its block is cached, else ``None``.

        A shard this store has not opened counts as not cached: opening one
        reads its footer and parses its dictionary, and a probe does no I/O
        (see :meth:`ShardReader.probe`).
        """
        shard_no, local = self.manifest.locate(index)
        reader = self._readers[shard_no]
        return None if reader is None else reader.probe(local)

    def probe_slice(self, start: int, stop: int) -> Optional[List[str]]:
        """:meth:`slice` if every block of the range is cached, else ``None``.

        All or nothing: every block is found before any record is served,
        so a range that is not wholly cached counts nothing.
        """
        start, stop = checked_range(start, stop, len(self))
        found: List[Tuple[ShardReader, List[CachedSpan]]] = []
        for shard_no, lo, hi in split_range(self._starts, start, stop):
            reader = self._readers[shard_no]
            spans = None if reader is None else reader.cached_spans(lo, hi)
            if spans is None:
                return None
            found.append((reader, spans))  # type: ignore[arg-type]
        records: List[str] = []
        for reader, spans in found:
            records += reader.decode_spans(spans)
        return records

    def iter_all(self) -> Iterator[str]:
        """Iterate over every record of every shard, in global order."""
        for shard_no in range(self.shard_count):
            yield from self.shard(shard_no).iter_all()
