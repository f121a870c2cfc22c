"""The reader protocol shared by packed stores and flat files.

Callers that serve records — the screening campaign, the CLI ``get`` /
``query`` commands, dataset loaders — should accept any
:class:`RecordReader` instead of a concrete class:

* :class:`~repro.library.CorpusLibrary` — any packed corpus: a
  ``library.json`` manifest over N ``.zss`` shards, or one bare ``.zss``
  (see :mod:`repro.library` for the full serving guide),
* :class:`~repro.store.reader.ShardReader` — one block-compressed ``.zss``
  container, from a path or an open file object,
* :class:`~repro.core.random_access.RandomAccessReader` — the documented
  "flat" fallback over line-oriented ``.smi`` / ``.zsmi`` files with a
  ``.zsx`` sidecar index,
* :class:`~repro.server.CorpusClient` — the network tier: a blocking HTTP
  client over a :class:`~repro.server.CorpusServer` (``zsmiles serve``).

:func:`open_reader` picks the right implementation from the path:
``http://`` / ``https://`` URLs dispatch to the corpus client, library
directories, ``.json`` manifests and ``.zss`` files to the library,
anything else to the flat reader.  Every implementation is a
context manager, so serving code can uniformly ``with open_reader(...) as
reader:``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Protocol, Sequence, Union, runtime_checkable

from ..core.codec import ZSmilesCodec
from ..core.random_access import RandomAccessReader

PathLike = Union[str, Path]


@runtime_checkable
class RecordReader(Protocol):
    """Random access to an ordered collection of records."""

    def __len__(self) -> int:
        """Number of records served."""
        ...

    def get(self, index: int) -> str:
        """The record at *index* (decompressed when a codec is available)."""
        ...

    def get_many(self, indices: Sequence[int]) -> List[str]:
        """Fetch several records, preserving request order."""
        ...

    def slice(self, start: int, stop: int) -> List[str]:
        """Records ``start`` (inclusive) to ``stop`` (exclusive, clamped)."""
        ...

    def iter_all(self) -> Iterator[str]:
        """Iterate over every record in order."""
        ...

    def sample(self, n: int, seed: Optional[int] = None) -> tuple:
        """Seeded uniform sample without replacement: ``(indices, records)``.

        Every implementation draws with ``random.Random(seed).sample`` over
        the index range and clamps *n* to the corpus size — the exact
        semantics of the HTTP tier's ``GET /records:sample`` — so seeded
        sampling is transport-agnostic.
        """
        ...

    def close(self) -> None:
        """Release the underlying file handles."""
        ...

    def __enter__(self) -> "RecordReader":
        """Enter a serving scope (``with open_reader(...) as reader:``)."""
        ...

    def __exit__(self, *exc_info: object) -> None:
        """Close the reader on scope exit."""
        ...


def open_reader(
    path: Union[PathLike, Sequence[str]],
    codec: Optional[ZSmilesCodec] = None,
    retry: Optional[object] = None,
) -> RecordReader:
    """Open the right :class:`RecordReader` for *path*.

    An ``http://`` / ``https://`` URL opens as a
    :class:`~repro.server.CorpusClient` over a running corpus server (the
    server decodes; *codec* is ignored).  *Several* URLs — a list/tuple of
    URLs, or one comma-separated string (``"http://a:1,http://b:2"``) —
    open as a :class:`~repro.server.FailoverCorpusClient` that round-robins
    across the replicas and fails over on retryable outcomes.  A library
    directory, a ``.json`` manifest or a ``.zss`` file opens as a
    :class:`~repro.library.CorpusLibrary`; anything else opens as the flat
    :class:`RandomAccessReader` fallback (building its line index on the
    fly when no ``.zsx`` sidecar is supplied).

    *retry* (a :class:`~repro.server.retry.RetryPolicy`) governs transient
    failure handling of the HTTP readers — connect retries for a single
    client, rotation budget for a failover client.  Local readers never
    retry, so the argument is ignored for file-backed paths.
    """
    # URL check runs on the raw string: Path() would collapse the "//" and
    # destroy the scheme.  Imported lazily — repro.server sits on top of
    # this module.
    from ..server.protocol import split_replica_urls

    replica_urls = split_replica_urls(path)
    if replica_urls:
        if len(replica_urls) > 1:
            from ..server.client import FailoverCorpusClient

            return FailoverCorpusClient(replica_urls, retry=retry)
        from ..server.client import CorpusClient

        return CorpusClient(replica_urls[0], retry=retry)
    path = Path(path)
    # Imported lazily: repro.library sits on top of this module.
    from ..library import CorpusLibrary, is_packed_path

    if is_packed_path(path):
        return CorpusLibrary.open(path, codec=codec)
    return RandomAccessReader(path, codec=codec)
