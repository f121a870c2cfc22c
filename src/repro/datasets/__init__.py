"""Synthetic SMILES datasets standing in for the paper's corpora (Section V-A)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".fragments": [
        "FRAGMENT_LIBRARY", "FragmentSpec", "fragment_names", "get_fragment",
    ],
    ".generator": [
        "GenerationProfile", "MoleculeGenerator", "dataset_statistics",
        "generate_dataset",
    ],
    ".io": [
        "SmiRecord", "file_size_bytes", "iter_smi", "parse_smi_line", "read_smi",
        "read_smiles", "write_smi",
    ],
    ".sampling": ["chunked", "random_sample", "reservoir_sample", "train_test_split"],
})
__all__ = ["exscalate", "gdb17", "mediate", "mixed", *__all__]
