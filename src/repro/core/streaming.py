"""Line I/O for ``.smi`` and ``.zsmi`` files.

The storage contract of ZSMILES (Section I, "random access" requirement) is
that the compressed file has exactly one record per line, on the same line
number as the input record.  This module reads and writes such files and
holds their shared conventions (encoding, suffixes, :class:`FileStats`); the
``.smi`` ↔ ``.zsmi`` file flows of Figure 3 are
:meth:`repro.engine.ZSmilesEngine.compress_file` and ``decompress_file``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Union

PathLike = Union[str, Path]

#: Default extension for compressed SMILES files.
ZSMI_SUFFIX = ".zsmi"
#: Default extension for plain SMILES files.
SMI_SUFFIX = ".smi"


@dataclass
class FileStats:
    """Result of a file-level compression or decompression run."""

    input_path: Path
    output_path: Path
    lines: int
    input_bytes: int
    output_bytes: int

    @property
    def ratio(self) -> float:
        """Output bytes / input bytes."""
        if self.input_bytes == 0:
            return 1.0
        return self.output_bytes / self.input_bytes


#: Encoding used for ``.smi`` / ``.zsmi`` files.  Every character the codec can
#: emit is at most U+00FF, so Latin-1 stores each symbol in exactly one byte —
#: this is what makes the on-disk sizes match the paper's "extended ASCII"
#: accounting.
FILE_ENCODING = "latin-1"


def read_lines(path: PathLike, encoding: str = FILE_ENCODING) -> Iterator[str]:
    """Yield the records of a line-oriented file, without terminators."""
    with open(path, "r", encoding=encoding, newline="") as handle:
        for raw in handle:
            yield raw.rstrip("\r\n")


def write_lines(path: PathLike, lines: Iterable[str], encoding: str = FILE_ENCODING) -> int:
    """Write *lines* one per line; return the number of records written."""
    count = 0
    with open(path, "w", encoding=encoding, newline="\n") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
            count += 1
    return count
