"""Shared fixtures for the test suite.

Corpora and trained codecs are expensive relative to individual assertions,
so they are built once per session at a small, deterministic scale.
"""

from __future__ import annotations

import pytest

from repro.core.codec import ZSmilesCodec
from repro.datasets import exscalate, gdb17, mediate, mixed
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import set_registry

#: Hand-picked SMILES used across tests: all valid, covering rings, branches,
#: aromatics, bracket atoms, charges, stereo markers and multi-ring numbering.
CURATED_SMILES = [
    "C",
    "CCO",
    "c1ccccc1",
    "COc1cc(C=O)ccc1O",                                # vanillin (paper Fig. 1)
    "C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",             # dibenzoylmethane (paper IV-A)
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",                      # ibuprofen
    "CC(=O)Oc1ccccc1C(=O)O",                           # aspirin
    "CN1CCC[C@H]1c1cccnc1",                            # nicotine (chirality)
    "C1CC2CCC1CC2",                                    # bicyclic, nested ring ids
    "O=C(O)c1ccccc1O",
    "[O-]C(=O)c1ccccc1[N+](=O)[O-]",                   # charges
    "FC(F)(F)c1ccc(Cl)cc1Br",                          # halogens incl. two-letter
    "C/C=C/C",                                         # cis/trans bonds
    "N#Cc1ccccc1",                                     # triple bond
    "C1CC1.C1CCC1",                                    # disconnected components
    "c1ccc2ccccc2c1",                                  # fused rings
    "O=S(=O)(N)c1ccc(N)cc1",
    "[13CH4]",                                         # isotope
    "C%12CCCCC%12",                                    # two-digit ring id
]


@pytest.fixture(scope="session")
def curated_smiles() -> list[str]:
    """Curated valid SMILES covering the grammar features the codec must handle."""
    return list(CURATED_SMILES)


@pytest.fixture(scope="session")
def gdb_corpus() -> list[str]:
    """Small GDB-17-like corpus (deterministic)."""
    return gdb17.generate(150, seed=1)


@pytest.fixture(scope="session")
def mediate_corpus() -> list[str]:
    """Small MEDIATE-like corpus (deterministic)."""
    return mediate.generate(150, seed=2)


@pytest.fixture(scope="session")
def exscalate_corpus() -> list[str]:
    """Small EXSCALATE-like corpus (deterministic)."""
    return exscalate.generate(150, seed=3)


@pytest.fixture(scope="session")
def mixed_corpus_small() -> list[str]:
    """Small MIXED corpus used for training test codecs."""
    return mixed.generate(450, seed=4)


@pytest.fixture(scope="session")
def trained_codec(mixed_corpus_small: list[str]) -> ZSmilesCodec:
    """A codec trained once on the small MIXED corpus (preprocessing enabled)."""
    return ZSmilesCodec.train(mixed_corpus_small, preprocessing=True, lmax=8)


@pytest.fixture(scope="session")
def plain_codec(mixed_corpus_small: list[str]) -> ZSmilesCodec:
    """A codec trained without preprocessing (byte-exact round trips)."""
    return ZSmilesCodec.train(mixed_corpus_small, preprocessing=False, lmax=8)


@pytest.fixture()
def decoded_lines():
    """Lines the kernel has decompressed so far, read from a fresh registry."""
    registry = MetricsRegistry(enabled=True)
    set_registry(registry)
    family = registry.counter("zsmiles_kernel_lines_total", labels=("op",))
    yield lambda: family.labels("decompress").value
    set_registry(None)
