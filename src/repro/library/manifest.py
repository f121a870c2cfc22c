"""The ``library.json`` manifest describing a sharded corpus library.

A library is a directory holding N ``.zss`` shards plus one manifest that
assigns every shard a contiguous *global record range*.  The manifest is the
routing table: ``total_records``, ``len()`` and global-index → (shard,
local-index) resolution all come from it, so a reader can route requests
without opening a single shard file.

Manifest layout (deterministic JSON, sorted keys)::

    {
      "format": "zsmiles-library",
      "version": 1,
      "total_records": 1000,
      "shards": [
        {"name": "shard-0000.zss", "start": 0, "records": 334,
         "blocks": 3, "records_per_block": 128, "file_bytes": 5210},
        {"name": "shard-0001.zss", "start": 334, "records": 333, ...},
        {"name": "shard-0002.zss", "start": 667, "records": 333, ...}
      ],
      "metadata": {"dictionary_embedded": true}
    }

Shard names are paths relative to the manifest's directory, so a library
moves as a unit.  ``start`` ranges must tile ``[0, total_records)`` without
gaps — validated on construction and again on load.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ManifestError, RandomAccessError

PathLike = Union[str, Path]

#: File-format marker stored under the ``"format"`` key.
MANIFEST_FORMAT = "zsmiles-library"
#: Current manifest schema version.
MANIFEST_VERSION = 1
#: Conventional manifest file name inside a library directory.
MANIFEST_NAME = "library.json"
#: Metadata key under which a library pins its dictionary's identity.
DICTIONARY_IDENTITY_KEY = "dictionary"


@dataclass(frozen=True)
class ShardEntry:
    """One shard's slot in the library: its file and its global record range.

    Attributes
    ----------
    name:
        Shard path relative to the manifest's directory.
    start:
        Global index of the shard's first record.
    records:
        Number of records the shard holds.
    blocks:
        Number of blocks in the shard (informational).
    records_per_block:
        Block granularity of the shard (informational).
    file_bytes:
        On-disk size of the shard file (informational).
    """

    name: str
    start: int
    records: int
    blocks: int
    records_per_block: int
    file_bytes: int

    @property
    def stop(self) -> int:
        """One past the shard's last global record index."""
        return self.start + self.records

    def to_json_obj(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "records": self.records,
            "blocks": self.blocks,
            "records_per_block": self.records_per_block,
            "file_bytes": self.file_bytes,
        }

    @classmethod
    def from_json_obj(cls, obj: object) -> "ShardEntry":
        if not isinstance(obj, dict):
            raise ManifestError("shard entry must be a JSON object")
        if not isinstance(obj.get("name"), str):
            raise ManifestError(f"shard entry name must be a string: {obj!r}")
        try:
            entry = cls(
                name=obj["name"],
                start=int(obj["start"]),
                records=int(obj["records"]),
                blocks=int(obj.get("blocks", 0)),
                records_per_block=int(obj.get("records_per_block", 1)),
                file_bytes=int(obj.get("file_bytes", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed shard entry: {obj!r}") from exc
        return entry

    @classmethod
    def describe(cls, name: str, start: int, reader) -> "ShardEntry":
        """The entry of an opened :class:`~repro.store.reader.ShardReader`:
        its footer's counts and its file's size."""
        return cls(
            name=name,
            start=start,
            records=len(reader),
            blocks=reader.block_count,
            records_per_block=reader.records_per_block,
            file_bytes=reader.path.stat().st_size,
        )


@dataclass(frozen=True)
class LibraryManifest:
    """Parsed, validated ``library.json``: the shard table plus metadata."""

    shards: Tuple[ShardEntry, ...]
    metadata: Dict[str, object] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def __post_init__(self) -> None:
        if not self.shards:
            raise ManifestError("a library needs at least one shard")
        if self.version != MANIFEST_VERSION:
            raise ManifestError(f"unsupported manifest version {self.version}")
        seen: set = set()
        expected_start = 0
        for number, shard in enumerate(self.shards):
            if not isinstance(shard.name, str) or not shard.name:
                raise ManifestError(f"shard {number} needs a non-empty string name")
            if Path(shard.name).is_absolute() or ".." in Path(shard.name).parts:
                raise ManifestError(
                    f"shard {number} name {shard.name!r} must be a relative path "
                    "inside the library directory"
                )
            if shard.name in seen:
                raise ManifestError(f"duplicate shard name {shard.name!r}")
            seen.add(shard.name)
            if shard.records < 0:
                raise ManifestError(f"shard {number} has negative record count")
            if shard.start != expected_start:
                raise ManifestError(
                    f"shard {number} starts at {shard.start}, expected {expected_start}: "
                    "global record ranges must be contiguous"
                )
            expected_start = shard.stop
        # Cached cumulative starts for bisect routing (frozen dataclass).
        object.__setattr__(self, "_starts", [shard.start for shard in self.shards])

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @property
    def total_records(self) -> int:
        """Number of records across all shards."""
        return self.shards[-1].stop

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def locate(self, index: int) -> Tuple[int, int]:
        """Resolve a global record *index* to ``(shard_number, local_index)``."""
        if not 0 <= index < self.total_records:
            raise RandomAccessError(
                f"record {index} out of range [0, {self.total_records})"
            )
        shard_no = bisect_right(self._starts, index) - 1  # type: ignore[attr-defined]
        return shard_no, index - self.shards[shard_no].start

    def shard_path(self, shard_no: int, root: PathLike) -> Path:
        """Absolute path of shard *shard_no* under the library *root*."""
        return Path(root) / self.shards[shard_no].name

    def dictionary_identity(self):
        """The dictionary identity this manifest pins, or ``None``.

        Returns a :class:`~repro.dictionary.serialization.DictionaryIdentity`
        when the metadata carries a well-formed ``"dictionary"`` object
        (libraries packed before the lifecycle existed simply have none).
        """
        from ..dictionary.serialization import DictionaryIdentity

        return DictionaryIdentity.from_json_obj(
            self.metadata.get(DICTIONARY_IDENTITY_KEY)
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        """Deterministic JSON text (sorted keys, two-space indent)."""
        obj = {
            "format": MANIFEST_FORMAT,
            "version": self.version,
            "total_records": self.total_records,
            "shards": [shard.to_json_obj() for shard in self.shards],
            "metadata": self.metadata,
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LibraryManifest":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ManifestError("manifest must be a JSON object")
        if obj.get("format") != MANIFEST_FORMAT:
            raise ManifestError(
                f"not a {MANIFEST_FORMAT} manifest (format={obj.get('format')!r})"
            )
        version = obj.get("version")
        if not isinstance(version, int):
            raise ManifestError("manifest version must be an integer")
        shards_obj = obj.get("shards")
        if not isinstance(shards_obj, list):
            raise ManifestError("manifest 'shards' must be a list")
        metadata = obj.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ManifestError("manifest 'metadata' must be a JSON object")
        manifest = cls(
            shards=tuple(ShardEntry.from_json_obj(entry) for entry in shards_obj),
            metadata=metadata,
            version=version,
        )
        declared = obj.get("total_records")
        if declared is not None and declared != manifest.total_records:
            raise ManifestError(
                f"manifest claims {declared} records but shards sum to "
                f"{manifest.total_records}"
            )
        return manifest

    def save(self, path: PathLike) -> Path:
        """Write the manifest to *path* (a directory gets ``library.json``)."""
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_NAME
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "LibraryManifest":
        """Load a manifest from a file path or a library directory."""
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_NAME
        if not path.is_file():
            raise ManifestError(f"no library manifest at {path}")
        return cls.from_json(path.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------ #
    # Construction from shard files
    # ------------------------------------------------------------------ #
    @classmethod
    def from_shards(
        cls,
        paths: Sequence[PathLike],
        metadata: Optional[Dict[str, object]] = None,
        root: Optional[PathLike] = None,
    ) -> "LibraryManifest":
        """Build a manifest by reading the footers of existing ``.zss`` shards.

        Shard names are recorded relative to *root* (default: the parent
        directory of the first shard); record ranges follow the order of
        *paths*.
        """
        from ..store.reader import ShardReader

        if not paths:
            raise ManifestError("from_shards needs at least one shard path")
        resolved = [Path(p) for p in paths]
        root = Path(root) if root is not None else resolved[0].parent
        entries: List[ShardEntry] = []
        start = 0
        for path in resolved:
            try:
                name = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError as exc:
                raise ManifestError(
                    f"shard {path} is not inside the library root {root}"
                ) from exc
            with ShardReader(path) as reader:
                entries.append(ShardEntry.describe(name, start, reader))
            start += entries[-1].records
        return cls(shards=tuple(entries), metadata=dict(metadata or {}))


def resolve_manifest_path(path: PathLike) -> Optional[Path]:
    """The manifest file a *path* refers to, or ``None`` if it is not one.

    Accepts the manifest file itself (any ``.json``) or a library directory
    containing a ``library.json``.
    """
    path = Path(path)
    if path.is_dir():
        candidate = path / MANIFEST_NAME
        return candidate if candidate.is_file() else None
    if path.suffix == ".json":
        return path
    return None


def is_packed_path(path: PathLike) -> bool:
    """Whether *path* is a packed layout: a library manifest/dir or a ``.zss``.

    The one dispatch rule shared by every consumer that distinguishes packed
    from flat corpora (``open_reader``, screening, dataset loading).
    """
    from ..store.format import STORE_SUFFIX

    path = Path(path)
    return resolve_manifest_path(path) is not None or path.suffix == STORE_SUFFIX
