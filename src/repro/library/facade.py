""":class:`CorpusLibrary` — the one serving facade for packed corpora.

``CorpusLibrary.open`` accepts anything packed: a library directory, its
``library.json`` manifest, or a bare single ``.zss`` shard (wrapped in a
synthetic one-shard manifest), and serves the
:class:`~repro.store.protocol.RecordReader` protocol over a
:class:`~repro.library.sharded.ShardedCorpusStore`.  Flat ``.smi`` /
``.zsmi`` files stay with :func:`repro.store.open_reader`, which dispatches
manifests here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from ..core.codec import ZSmilesCodec
from ..errors import LibraryError
from ..store.format import STORE_SUFFIX
from ..store.reader import DEFAULT_CACHE_BLOCKS, BlockCache, ShardReader
from .manifest import LibraryManifest, resolve_manifest_path
from .sharded import ShardedCorpusStore

PathLike = Union[str, Path]


class CorpusLibrary:
    """Serve records out of a packed corpus, whatever shape it was packed in.

    Construct through :meth:`open`; the instance delegates the whole
    :class:`~repro.store.protocol.RecordReader` surface (plus ``get_raw``)
    to its underlying :class:`~repro.library.sharded.ShardedCorpusStore`.
    """

    def __init__(self, store: ShardedCorpusStore, path: Path):
        self.store = store
        self.path = path

    @classmethod
    def open(
        cls,
        source: PathLike,
        codec: Optional[ZSmilesCodec] = None,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        verify_checksums: bool = True,
        use_mmap: bool = False,
        cache: Optional[BlockCache] = None,
    ) -> "CorpusLibrary":
        """Open a library directory, a ``library.json``, or a bare ``.zss``."""
        path = Path(source)
        manifest_path = resolve_manifest_path(path)
        if manifest_path is not None:
            store = ShardedCorpusStore.open(
                manifest_path,
                codec=codec,
                cache_blocks=cache_blocks,
                verify_checksums=verify_checksums,
                use_mmap=use_mmap,
                cache=cache,
            )
            return cls(store, manifest_path)
        if path.suffix == STORE_SUFFIX and path.is_file():
            manifest = LibraryManifest.from_shards([path])
            store = ShardedCorpusStore(
                manifest,
                path.parent,
                codec=codec,
                cache_blocks=cache_blocks,
                verify_checksums=verify_checksums,
                use_mmap=use_mmap,
                cache=cache,
            )
            return cls(store, path)
        raise LibraryError(
            f"cannot open {path} as a corpus library: expected a library "
            f"directory, a library.json manifest, or a {STORE_SUFFIX} shard"
        )

    # ------------------------------------------------------------------ #
    # Library surface
    # ------------------------------------------------------------------ #
    @property
    def manifest(self) -> LibraryManifest:
        return self.store.manifest

    def dictionary_identity(self):
        """The dictionary identity the library's manifest pins, or ``None``."""
        return self.store.dictionary_identity()

    @property
    def shard_count(self) -> int:
        return self.store.shard_count

    @property
    def open_shard_count(self) -> int:
        return self.store.open_shard_count

    def shard(self, shard_no: int) -> ShardReader:
        """The (lazily opened) reader for shard *shard_no*."""
        return self.store.shard(shard_no)

    @property
    def cache_hits(self) -> int:
        return self.store.cache_hits

    @property
    def cache_misses(self) -> int:
        return self.store.cache_misses

    def cache_stats(self) -> dict:
        """Hit/miss/occupancy snapshot of the shared block cache."""
        return self.store.cache_stats()

    def quarantine_stats(self) -> dict:
        """Quarantined-block counters (degraded-read observability)."""
        return self.store.quarantine_stats()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "CorpusLibrary":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Access (RecordReader protocol, delegated)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.store)

    def get(self, index: int) -> str:
        """The record at global *index*."""
        return self.store.get(index)

    def __getitem__(self, index: int) -> str:
        return self.store.get(index)

    def get_raw(self, index: int) -> str:
        """The stored (compressed) record at global *index*."""
        return self.store.get_raw(index)

    def get_many(self, indices: Sequence[int]) -> List[str]:
        """Fetch several records by global index, preserving request order."""
        return self.store.get_many(indices)

    def slice(self, start: int, stop: int) -> List[str]:
        """Records ``start`` (inclusive) to ``stop`` (exclusive, clamped)."""
        return self.store.slice(start, stop)

    def probe(self, index: int) -> Optional[str]:
        """The record at *index* if its block is cached, else ``None`` (no I/O)."""
        return self.store.probe(index)

    def probe_slice(self, start: int, stop: int) -> Optional[List[str]]:
        """:meth:`slice` if every record is cached, else ``None`` (no I/O)."""
        return self.store.probe_slice(start, stop)

    def iter_all(self) -> Iterator[str]:
        """Iterate over every record, in global order."""
        return self.store.iter_all()

    def sample(self, n: int, seed=None) -> tuple:
        """Seeded uniform sample without replacement: ``(indices, records)``.

        Same semantics as ``GET /records:sample`` on the HTTP tier, so a
        campaign driver can sample through either transport identically.
        """
        return self.store.sample(n, seed)
