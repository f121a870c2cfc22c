""".smi file input/output.

A ``.smi`` file stores one molecule per line: the SMILES string, optionally
followed by whitespace and a molecule name / identifier.  Screening output
files additionally carry a score column.  These helpers read and write both
flavours while preserving the one-record-per-line contract that the ZSMILES
random-access guarantee depends on.

Packed corpora are read transparently: a path ending in ``.zss`` (the
block-compressed store, :mod:`repro.store`), a sharded library directory or
a ``library.json`` manifest (:mod:`repro.library`) is decoded through its
embedded dictionary — or a caller-supplied codec — and its records flow
through the same parsing helpers as plain lines.  An ``http://`` URL
streams the corpus from a running server (:mod:`repro.server`) the same
way — the server decodes, so no local dictionary is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import DatasetError

PathLike = Union[str, Path]

#: Suffix of packed corpus stores; must equal repro.store.format.STORE_SUFFIX
#: (asserted there is a single source of truth in tests/datasets/test_io.py).
#: Kept as a literal so plain .smi reads never import the store/engine stack.
STORE_SUFFIX = ".zss"


@dataclass(frozen=True)
class SmiRecord:
    """One parsed ``.smi`` line.

    Attributes
    ----------
    smiles:
        The SMILES column (always present).
    name:
        The optional molecule identifier column.
    score:
        The optional numeric score column (screening outputs).
    """

    smiles: str
    name: Optional[str] = None
    score: Optional[float] = None

    def to_line(self) -> str:
        """Render the record back to a ``.smi`` line."""
        parts: List[str] = [self.smiles]
        if self.name is not None:
            parts.append(self.name)
        if self.score is not None:
            parts.append(f"{self.score:.4f}")
        return "\t".join(parts)


def parse_smi_line(line: str) -> SmiRecord:
    """Parse one ``.smi`` line into a :class:`SmiRecord`.

    The last column is treated as a score when it parses as a float and at
    least three columns are present; a second column is otherwise the name.
    """
    stripped = line.strip()
    if not stripped:
        raise DatasetError("empty .smi line")
    parts = stripped.split()
    smiles = parts[0]
    name: Optional[str] = None
    score: Optional[float] = None
    if len(parts) >= 3:
        try:
            score = float(parts[-1])
            name = " ".join(parts[1:-1])
        except ValueError:
            name = " ".join(parts[1:])
    elif len(parts) == 2:
        try:
            score = float(parts[1])
        except ValueError:
            name = parts[1]
    return SmiRecord(smiles=smiles, name=name, score=score)


def read_smi(
    path: PathLike, smiles_only: bool = False, codec: Optional[object] = None
) -> List[SmiRecord]:
    """Read a ``.smi`` file eagerly.

    Parameters
    ----------
    path:
        File to read.
    smiles_only:
        When ``True``, name/score columns are dropped (slightly faster and
        what the compression experiments need).
    codec:
        Codec for decoding a ``.zss`` packed corpus (defaults to the store's
        embedded dictionary); ignored for flat files.
    """
    return list(iter_smi(path, smiles_only=smiles_only, codec=codec))


def iter_smi(
    path: PathLike, smiles_only: bool = False, codec: Optional[object] = None
) -> Iterator[SmiRecord]:
    """Lazily iterate over the records of a ``.smi`` file (blank lines skipped).

    A packed corpus (a ``.zss`` shard or a library) is served through
    :class:`repro.library.CorpusLibrary` — decoded with *codec*, or the
    shards' embedded dictionary when ``None``.
    """
    for line in _iter_record_lines(path, codec=codec):
        if not line.strip():
            continue
        if smiles_only:
            yield SmiRecord(smiles=line.split()[0])
        else:
            yield parse_smi_line(line)


def _iter_record_lines(path: PathLike, codec: Optional[object] = None) -> Iterator[str]:
    """Yield terminator-stripped record lines from a flat or packed corpus."""
    # The URL check must run before Path() collapses the "//"; imported
    # lazily like the packed layouts below.
    from ..server.protocol import is_url

    if is_url(path):
        # A remote corpus server (zsmiles serve): stream the whole range.
        from ..server.client import CorpusClient

        with CorpusClient(str(path)) as client:
            yield from client.iter_all()
        return
    path = Path(path)
    if path.is_dir() or path.suffix in (".json", STORE_SUFFIX):
        # A packed corpus: a library directory, its library.json manifest or
        # a bare .zss shard.  Imported lazily: the library pulls in the codec
        # stack, which this light-weight I/O module must not load for plain
        # .smi reads.  A directory without a manifest falls through to the
        # flat open below, failing the way it always has.
        from ..library import CorpusLibrary, is_packed_path

        if is_packed_path(path):
            with CorpusLibrary.open(path, codec=codec) as library:  # type: ignore[arg-type]
                for shard_no in range(library.shard_count):
                    if library.shard(shard_no).codec is None:
                        raise DatasetError(
                            f"{path}: packed corpus has no embedded dictionary; "
                            "pass codec= to decode it"
                        )
                yield from library.iter_all()
            return
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            yield raw.rstrip("\r\n")


def read_smiles(path: PathLike, codec: Optional[object] = None) -> List[str]:
    """Read only the SMILES column of a ``.smi`` file (or ``.zss`` store)."""
    return [record.smiles for record in iter_smi(path, smiles_only=True, codec=codec)]


def write_smi(path: PathLike, records: Iterable[Union[str, SmiRecord, Tuple[str, float]]]) -> int:
    """Write records to a ``.smi`` file; returns the number of lines written.

    Accepts plain SMILES strings, :class:`SmiRecord` objects or
    ``(smiles, score)`` tuples.
    """
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for item in records:
            if isinstance(item, SmiRecord):
                line = item.to_line()
            elif isinstance(item, tuple):
                smiles, score = item
                line = SmiRecord(smiles=smiles, score=float(score)).to_line()
            else:
                line = item
            if "\n" in line or "\r" in line:
                raise DatasetError("a .smi record must not contain line terminators")
            handle.write(line)
            handle.write("\n")
            count += 1
    return count


def file_size_bytes(path: PathLike) -> int:
    """Size of *path* in bytes (convenience for compression-ratio bookkeeping)."""
    return Path(path).stat().st_size
