""":class:`CorpusLibrary` — the one reader of a packed corpus, whatever its shape.

``CorpusLibrary.open`` accepts a library directory, its ``library.json``
manifest, or a bare ``.zss`` shard (served as a one-shard library).  The
manifest routes: ``len()`` and global-index → (shard, local) resolution come
straight from it, so *no* shard file is opened until one of its records is
requested (``open_shard_count`` makes that observable).  All shards share
one LRU block-cache budget through
:class:`~repro.store.reader.BlockCacheView` — a library of 64 shards under
``cache_blocks=16`` holds at most 16 blocks in memory, not 1024.

Each shard has one :class:`~repro.store.reader.ShardReader`, which reads
blocks positionally, so one library serves concurrent loads from many
threads; :class:`~repro.library.AsyncCorpusLibrary` wraps exactly one.  The
class satisfies the :class:`~repro.store.protocol.RecordReader` protocol,
so everything that serves records (screening, dataset loaders, the CLI)
takes it interchangeably with a :class:`~repro.store.reader.ShardReader`
and the flat ``RandomAccessReader``.  Flat ``.smi`` / ``.zsmi`` files stay
with :func:`repro.store.open_reader`, which dispatches packed paths here.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from ..core.codec import ZSmilesCodec
from ..errors import DictionaryMismatchError, LibraryError, ManifestError
from ..store.format import DICTIONARY_HASH_META_KEY, STORE_SUFFIX
from ..store.reader import (
    DEFAULT_CACHE_BLOCKS,
    BlockCache,
    BlockCacheView,
    CachedSpan,
    RecordAccessMixin,
    ShardReader,
    checked_range,
    quarantine_rollup,
)
from .manifest import MANIFEST_NAME, LibraryManifest, ShardEntry, resolve_manifest_path

PathLike = Union[str, Path]


class CorpusLibrary(RecordAccessMixin):
    """One logical corpus served out of the shards a manifest describes.

    Construct through :meth:`open`, or directly over a manifest.

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
        shards together.
    """

    def __init__(
        self,
        manifest: LibraryManifest,
        root: PathLike,
        codec: Optional[ZSmilesCodec] = None,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    ):
        self.manifest = manifest
        self.root = Path(root)
        #: What was opened: the manifest, or the bare ``.zss`` shard.
        self.path = self.root / MANIFEST_NAME
        self._codec = codec
        self._cache = BlockCache(cache_blocks)
        self._readers: List[Optional[ShardReader]] = [None] * manifest.shard_count
        self._open_lock = threading.Lock()

    @classmethod
    def open(
        cls,
        source: PathLike,
        codec: Optional[ZSmilesCodec] = None,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    ) -> "CorpusLibrary":
        """Open a library directory, a ``library.json``, or a bare ``.zss``."""
        path = Path(source)
        options = dict(codec=codec, cache_blocks=cache_blocks)
        manifest_path = resolve_manifest_path(path)
        if manifest_path is not None:
            library = cls(LibraryManifest.load(manifest_path), manifest_path.parent, **options)
            library.path = manifest_path
            return library
        if path.suffix == STORE_SUFFIX and path.is_file():
            # The one-shard manifest comes from the reader the library
            # keeps: one footer read and one dictionary parse.
            cache = BlockCache(cache_blocks)
            reader = ShardReader(path, codec=codec, cache=BlockCacheView(cache, 0))
            try:
                manifest = LibraryManifest((ShardEntry.describe(path.name, 0, reader),))
            except Exception:
                reader.close()
                raise
            library = cls(manifest, path.parent, **options)
            library._cache, library._readers[0], library.path = cache, reader, path
            return library
        raise LibraryError(
            f"cannot open {path} as a corpus library: expected a library "
            f"directory, a library.json manifest, or a {STORE_SUFFIX} shard"
        )

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
                    reader = self._readers[shard_no] = self._open_shard(shard_no)
        return reader

    def _open_shard(self, shard_no: int) -> ShardReader:
        entry = self.manifest.shards[shard_no]
        reader = ShardReader(
            self.root / entry.name, codec=self._codec, cache=BlockCacheView(self._cache, shard_no)
        )
        try:
            if len(reader) != entry.records:
                raise ManifestError(
                    f"shard {entry.name!r} holds {len(reader)} records but the "
                    f"manifest promises {entry.records}"
                )
            self._check_shard_dictionary(reader, entry)
        except Exception:
            reader.close()
            raise
        return reader

    def _check_shard_dictionary(self, reader: ShardReader, entry: ShardEntry) -> None:
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
            raise DictionaryMismatchError(
                f"shard {entry.name!r} was packed with dictionary "
                f"{declared[:12]} but the manifest pins "
                f"{identity.short_hash}: re-pack or fix the manifest"
            )

    def dictionary_identity(self):
        """The dictionary identity the manifest pins, or ``None`` (always
        ``None`` for a bare ``.zss``, whose one-shard manifest pins none)."""
        return self.manifest.dictionary_identity()

    @property
    def shard_count(self) -> int:
        return self.manifest.shard_count

    @property
    def open_shard_count(self) -> int:
        """How many shards have actually been opened (lazy-open observable)."""
        return sum(1 for reader in self._readers if reader is not None)

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

    def __enter__(self) -> "CorpusLibrary":
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
        records: List[str] = []
        for shard_no, lo, hi in self._shard_spans(start, stop):
            records += self.shard(shard_no).slice(lo, hi)
        return records

    def iter_all(self) -> Iterator[str]:
        """Iterate over every record of every shard, in global order."""
        for shard_no in range(self.shard_count):
            yield from self.shard(shard_no).iter_all()

    def _shard_spans(self, start: int, stop: int) -> Iterator[Tuple[int, int, int]]:
        """``(shard, local start, local stop)`` for every shard the range
        ``[start, stop)`` covers, after checking and clamping it."""
        start, stop = checked_range(start, stop, len(self))
        if start >= stop:
            return
        shards = self.manifest.shards
        shard_no = self.manifest.locate(start)[0]
        while start < stop:
            entry = shards[shard_no]
            upper = min(stop, entry.stop)
            if upper > start:
                yield shard_no, start - entry.start, upper - entry.start
                start = upper
            shard_no += 1

    # ------------------------------------------------------------------ #
    # Cache probes: no I/O, so an event loop may call them
    # ------------------------------------------------------------------ #
    def probe(self, index: int) -> Optional[str]:
        """The record at global *index* if its block is cached, else ``None``.

        An unopened shard counts as not cached: opening one reads its footer
        and parses its dictionary, and a probe does no I/O (see
        :meth:`ShardReader.probe`).
        """
        shard_no, local = self.manifest.locate(index)
        reader = self._readers[shard_no]
        return None if reader is None else reader.probe(local)

    def probe_slice(self, start: int, stop: int) -> Optional[List[str]]:
        """:meth:`slice` if every block of the range is cached, else ``None``.

        All or nothing: every block is found before any record is served,
        so a range that is not wholly cached counts nothing.
        """
        found: List[Tuple[ShardReader, List[CachedSpan]]] = []
        for shard_no, lo, hi in self._shard_spans(start, stop):
            reader = self._readers[shard_no]
            spans = None if reader is None else reader.cached_spans(lo, hi)
            if spans is None:
                return None
            found.append((reader, spans))  # type: ignore[arg-type]
        records: List[str] = []
        for reader, spans in found:
            records += reader.decode_spans(spans)
        return records
