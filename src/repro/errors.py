"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch a single base class at API boundaries.  Sub-hierarchies mirror the
package layout: SMILES parsing, dictionary construction, codec operation and
dataset generation each get their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class SmilesError(ReproError):
    """Base class for SMILES tokenization / parsing / validation errors."""


class TokenizationError(SmilesError):
    """Raised when a SMILES string cannot be split into tokens.

    Attributes
    ----------
    smiles:
        The offending input string.
    position:
        Zero-based character offset where tokenization failed.
    """

    def __init__(self, message: str, smiles: str = "", position: int = -1):
        super().__init__(message)
        self.smiles = smiles
        self.position = position


class ParseError(SmilesError):
    """Raised when a token stream cannot be assembled into a molecular graph."""

    def __init__(self, message: str, smiles: str = "", position: int = -1):
        super().__init__(message)
        self.smiles = smiles
        self.position = position


class ValidationError(SmilesError):
    """Raised when a structurally parsable SMILES violates a semantic rule."""


class RingNumberingError(SmilesError):
    """Raised when ring-bond identifiers cannot be paired or renumbered."""


class DictionaryError(ReproError):
    """Base class for dictionary construction and serialization errors."""


class SymbolSpaceExhaustedError(DictionaryError):
    """Raised when more dictionary entries are requested than code points exist."""


class DictionaryFormatError(DictionaryError):
    """Raised when a ``.dct`` file cannot be parsed."""


class DictionaryIntegrityError(DictionaryFormatError):
    """Raised when a ``.dct`` parses but its declared entry counts disagree
    with the parsed body (a truncated or spliced file).

    Attributes
    ----------
    source:
        The offending path (or ``None`` when parsing from a string).
    """

    def __init__(self, message: str, source: object = None):
        super().__init__(message)
        self.source = source


class DictionaryMismatchError(DictionaryError):
    """Raised when a dictionary's content hash disagrees with the identity a
    manifest or shard footer declares for it (serving a corpus with the
    wrong dictionary would silently decode garbage)."""


class CodecError(ReproError):
    """Base class for compression / decompression failures."""


class CompressionError(CodecError):
    """Raised when an input line cannot be compressed."""


class DecompressionError(CodecError):
    """Raised when a compressed line cannot be decoded with the dictionary."""


class RandomAccessError(CodecError):
    """Raised for out-of-range or malformed random-access requests."""


class StoreError(CodecError):
    """Base class for block-store (``.zss``) packing and reading failures."""


class StoreFormatError(StoreError):
    """Raised when a ``.zss`` container is malformed, truncated or corrupt."""


class BlockCorruptionError(StoreFormatError):
    """Raised when one block of a ``.zss`` shard fails its integrity check
    (CRC mismatch or short read) while the rest of the shard stays readable.

    Carrying the shard path and block index lets the serving layers
    *quarantine* exactly the damaged block — every record outside it keeps
    serving — and lets ``zsmiles fsck`` name what to repair.  Replica-aware
    clients treat it as retryable: corruption is replica-local, so another
    replica can usually serve the same range.

    Attributes
    ----------
    shard_path:
        Path of the damaged shard (string; ``""`` when unknown).
    block:
        Zero-based index of the damaged block (``-1`` when unknown).
    """

    def __init__(self, message: str, shard_path: object = None, block: int = -1):
        super().__init__(message)
        self.shard_path = str(shard_path) if shard_path is not None else ""
        self.block = block


class LibraryError(StoreError):
    """Base class for sharded corpus-library packing and serving failures."""


class ManifestError(LibraryError):
    """Raised when a ``library.json`` manifest is malformed or inconsistent."""


class ServerError(ReproError):
    """Base class for the HTTP serving front (:mod:`repro.server`)."""


class ProtocolError(ServerError):
    """Raised for malformed requests or responses on the serving wire (HTTP 400)."""


class ServerConnectionError(ServerError):
    """Raised when the transport to a corpus server fails (died mid-stream, refused).

    ``delivered`` counts records the failing call had already handed to the
    consumer before the transport died (only meaningful for range streams;
    ``0`` for unit requests).  Failover clients use it to resume a broken
    stream on another replica at the first undelivered record, and consumers
    that buffered the partial stream can trust the prefix they hold.
    """

    def __init__(self, message: str, delivered: int = 0):
        super().__init__(message)
        self.delivered = delivered


class ServerBusyError(ServerError):
    """Raised when a server cannot take the request right now
    (HTTP 503).  Retryable: a replica-aware client should try another replica."""


class CurationError(ReproError):
    """Raised by the corpus-curation subsystem (ingest, sampling, repack)."""


class DatasetError(ReproError):
    """Raised by the synthetic dataset generators and ``.smi`` I/O helpers."""


class ScreeningError(ReproError):
    """Raised by the virtual-screening pipeline substrate."""


class CampaignError(ReproError):
    """Raised by the generative GA screening-campaign driver
    (:mod:`repro.campaign`): bad configuration, corrupt or missing
    checkpoints, and unrecoverable generation-loop failures."""


class ParallelExecutionError(ReproError):
    """Raised when a parallel backend fails to complete a batch."""
