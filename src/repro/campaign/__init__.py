"""Generative GA screening campaigns over the full serving stack.

This package makes the ROADMAP's "generative screening campaign" a
first-class workload: an evolutionary loop that *reads* its seed and
immigrant populations from any corpus tier — a local library, a single
``.zss`` shard, or an ``http://`` replica list, all through
:func:`repro.store.open_reader` and the transport-agnostic
``sample(n, seed)`` — and *writes* each generation back as a normal
sharded library, composing the campaign history into one manifest.

Architecture
============

``operators``
    Pure GA operators over :class:`~repro.smiles.MolecularGraph`:
    :func:`mutate` attaches one fragment from
    :mod:`repro.datasets.fragments` at a free-valence atom;
    :func:`crossover` fuses two parents with a single new bond.  Both draw
    every choice from a caller-supplied ``random.Random`` and return
    ``None`` for chemically impossible edits — never an invalid SMILES.

``scoring``
    :func:`score_many` fans the deterministic docking surrogate
    (:func:`repro.screening.docking.dock_score`) over a thread pool;
    results are identical at any pool width because the scorer is pure and
    ``map`` preserves order.

``state``
    The ``campaign.json`` checkpoint: evolution RNG state, last *completed*
    generation, per-generation :class:`GenerationStats`, and pointers to
    the composed manifest and the campaign dictionary.  Written atomically
    *after* a generation's libraries are on disk, so a SIGKILL loses at
    most the in-flight generation.

``driver``
    :class:`CampaignDriver` ties it together: sample seeds → curate
    (strip / length / canonical filters, dedup) → train the campaign
    dictionary once → loop ``step()``: breed, curate offspring, score,
    select with the total order of
    :func:`repro.screening.docking.top_hits`, pack ``gen-NNNN.library``,
    recompose, checkpoint.

Determinism contract
====================

Kill a campaign at any instant, ``resume()`` it, and the finished campaign
is byte-identical to an uninterrupted run with the same seed: same composed
manifest, same per-generation stats (minus wall time), same top-hits list.
This holds over HTTP replica lists too — replica failover changes which
server answers, never which records are served.

CLI: ``zsmiles campaign run | resume | status | top-hits``.

Quickstart::

    from repro.campaign import CampaignConfig, CampaignDriver

    config = CampaignConfig(population_size=32, generations=3, seed=7)
    with CampaignDriver.start("corpus.library", "camp/", config) as driver:
        state = driver.run()
    for smiles, score in campaign_top_hits("camp/", 10):
        print(f"{score:9.3f}  {smiles}")
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".driver": [
        "CampaignConfig", "CampaignDriver", "campaign_status", "campaign_top_hits",
        "resume_campaign", "run_campaign",
    ],
    ".operators": [
        "DEFAULT_MAX_HEAVY_ATOMS", "DEFAULT_MUTATION_FRAGMENTS",
        "attachment_candidates", "crossover", "mutate",
    ],
    ".scoring": ["resolve_pocket", "score_many"],
    ".state": [
        "CHECKPOINT_NAME", "COMPOSED_MANIFEST_NAME", "DICTIONARY_NAME",
        "GENERATION_DIR_FORMAT", "CampaignState", "GenerationStats", "generation_dir",
    ],
})
