"""SMILES toolkit substrate.

This subpackage provides everything the rest of the library needs to work
with SMILES strings without an external cheminformatics dependency:
tokenization, parsing to a molecular graph, writing graphs back to SMILES,
validation, and ring-bond span analysis.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".alphabet": [
        "ESCAPE_CHAR", "EXTENDED_ASCII", "NON_SMILES_PRINTABLE", "PRINTABLE_ASCII",
        "SMILES_ALPHABET", "is_smiles_char", "symbol_code_points",
    ],
    ".graph": ["Atom", "Bond", "BondOrder", "MolecularGraph"],
    ".parser": ["SmilesParser", "is_parsable", "parse"],
    ".rings": [
        "RingSpan", "max_simultaneous_rings", "pair_ring_bonds", "ring_spans",
        "ring_statistics",
    ],
    ".tokenizer": [
        "Token", "TokenType", "detokenize", "is_tokenizable", "iter_tokens", "tokenize",
    ],
    ".validate": ["ValidationReport", "is_valid", "validate"],
    ".writer": ["SmilesWriter", "format_atom", "write"],
})
