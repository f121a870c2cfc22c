"""Cross-dictionary re-pack: migrate a live library to a new dictionary.

``repack_library`` decompresses every record of a source library with the
dictionary it was packed with (dictionary A, resolved from the embedded
``.dct`` per shard), recompresses with dictionary B and writes a brand-new
library through :class:`~repro.library.writer.LibraryWriter` — on a pool of
``shard_jobs`` workers when one repays its start — whose manifest pins B's
identity.  The destination must be a different
directory: the source shards are never touched, and the new library only
becomes addressable once its ``library.json`` has been written *and*
validated (record count, full readback when ``verify=True``, manifest
identity), so a failed or interrupted repack leaves both corpora intact.

Because stored records are exact decompression outputs and dictionary B is
applied through an *identity* preprocessing pipeline, the repacked library's
readback is byte-identical to the source corpus — and the shard bytes are
byte-identical to a fresh pack of the same records with dictionary B (the
parity tests pin both).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..core.codec import ZSmilesCodec
from ..dictionary.codec_table import CodecTable
from ..dictionary.serialization import DictionaryIdentity, load as load_dictionary
from ..engine.engine import ZSmilesEngine
from ..errors import CurationError
from ..library.corpus import CorpusLibrary
from ..library.writer import LibraryInfo, LibraryWriter
from ..preprocess.pipeline import PreprocessingPipeline

PathLike = Union[str, Path]
DictionarySource = Union[str, Path, CodecTable, ZSmilesCodec, ZSmilesEngine]


@dataclass(frozen=True)
class RepackResult:
    """Outcome of one library re-pack.

    Attributes
    ----------
    info:
        The new library's :class:`~repro.library.writer.LibraryInfo`.
    records:
        Records migrated (equals the source library's length).
    source_identity:
        Dictionary identity the source manifest pinned (``None`` for
        pre-lifecycle libraries).
    target_identity:
        Identity of the dictionary the new library is packed with.
    """

    info: LibraryInfo
    records: int
    source_identity: Optional[DictionaryIdentity]
    target_identity: DictionaryIdentity

    @property
    def directory(self) -> Path:
        return self.info.directory

    @property
    def manifest_path(self) -> Path:
        return self.info.manifest_path


def resolve_dictionary(dictionary: DictionarySource) -> CodecTable:
    """A :class:`CodecTable` out of whatever names a dictionary.

    Accepts a ``.dct`` path, a table, a codec, or an engine.
    """
    if isinstance(dictionary, ZSmilesEngine):
        return dictionary.table
    if isinstance(dictionary, ZSmilesCodec):
        return dictionary.table
    if isinstance(dictionary, CodecTable):
        return dictionary
    return load_dictionary(dictionary)


def repack_engine(dictionary: DictionarySource, backend: Optional[str] = None) -> ZSmilesEngine:
    """An engine over *dictionary* with an **identity** preprocessing pipeline.

    Source records are exact decompression outputs — already preprocessed
    when they were first packed — so running them through a preprocessing
    pipeline again is at best a no-op and at worst a rewrite.  The identity
    pipeline guarantees ``decompress(compress(record)) == record`` byte for
    byte, which is what makes repack loss-free.
    """
    table = resolve_dictionary(dictionary)
    codec = ZSmilesCodec(table, pipeline=PreprocessingPipeline.identity())
    if backend is None:
        return ZSmilesEngine.from_codec(codec)
    return ZSmilesEngine.from_codec(codec, backend=backend)


def repack_library(
    source: PathLike,
    directory: PathLike,
    dictionary: DictionarySource,
    shards: Optional[int] = None,
    records_per_block: Optional[int] = None,
    backend: Optional[str] = None,
    shard_jobs: Optional[int] = None,
    verify: bool = True,
) -> RepackResult:
    """Re-pack the library at *source* into *directory* with a new dictionary.

    Parameters
    ----------
    source:
        Existing library (directory, ``library.json`` or bare ``.zss``).
    directory:
        Destination library directory; must differ from the source's root.
    dictionary:
        Dictionary B (path, table, codec or engine).
    shards / records_per_block:
        Layout of the new library; default: mirror the source layout.
    shard_jobs:
        Worker processes of the pool the new library is packed on, used
        only when that pool would repay its start; otherwise the pack runs
        in-process (as ``zsmiles pack --shard-jobs``).
    verify:
        Read the whole new library back and compare against the source
        records before returning (the safety net that keeps a bad repack
        from ever being handed to callers).

    Raises :class:`~repro.errors.CurationError` on a same-directory repack
    or a failed validation.
    """
    source = Path(source)
    directory = Path(directory)
    with CorpusLibrary.open(source) as library:
        source_root = library.path if library.path.is_dir() else library.path.parent
        if directory.resolve() == source_root.resolve():
            raise CurationError(
                "repack destination must be a different directory: the source "
                "library stays untouched until the new one validates"
            )
        records = list(library.iter_all())
        source_identity = library.dictionary_identity()
        if shards is None:
            shards = library.shard_count
        if records_per_block is None:
            records_per_block = library.manifest.shards[0].records_per_block
    with repack_engine(dictionary, backend=backend) as engine:
        target_identity = DictionaryIdentity.of(engine.table)
        writer = LibraryWriter(
            directory,
            engine,
            shards=shards,
            records_per_block=records_per_block,
            metadata={"repacked_from": str(source)},
            shard_jobs=shard_jobs,
        )
        info = writer.pack(records)
    _validate_repack(directory, records, target_identity, verify=verify)
    return RepackResult(
        info=info,
        records=len(records),
        source_identity=source_identity,
        target_identity=target_identity,
    )


def _validate_repack(
    directory: Path,
    records,
    target_identity: DictionaryIdentity,
    verify: bool,
) -> None:
    """Post-pack validation: count, pinned identity, optional full readback."""
    with CorpusLibrary.open(directory) as packed:
        if len(packed) != len(records):
            raise CurationError(
                f"repack wrote {len(packed)} records, expected {len(records)}"
            )
        pinned = packed.dictionary_identity()
        if pinned is None or pinned.hash != target_identity.hash:
            raise CurationError(
                "repacked manifest does not pin the target dictionary identity"
            )
        if verify:
            for index, (got, want) in enumerate(zip(packed.iter_all(), records)):
                if got != want:
                    raise CurationError(
                        f"repack readback diverges at record {index}: "
                        f"{got!r} != {want!r}"
                    )
