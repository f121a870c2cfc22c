"""Corpus curation: streaming ingest, bounded sampling, dictionary lifecycle.

This subsystem turns raw, arbitrarily large SMILES dumps into packed,
dictionary-pinned corpus libraries, and migrates live libraries between
dictionaries.  Three pillars:

* **Streaming ingest** (:mod:`~repro.curation.pipeline`,
  :mod:`~repro.curation.filters`) — a single bounded-memory pass over any
  line source: composable filters (strip, largest fragment, charge/length/
  carbon gates, canonicalisation through :mod:`repro.smiles`), hash-based
  streaming dedup, and per-stage accept/reject counters that always tally
  against the lines seen.
* **Bounded sampling** (:mod:`~repro.curation.sampling`) — reservoir/head
  samplers tee'd into the same pass, so a dictionary can be trained on a
  uniform sample of a corpus that is only ever streamed once.
* **Dictionary lifecycle + re-pack** (:mod:`~repro.curation.lifecycle`,
  :mod:`~repro.curation.repack`) — content-hashed dictionary identities
  pinned in ``.dct`` metadata, ``library.json`` manifests and shard
  footers, verified on load; and loss-free migration of a packed library
  from dictionary A to dictionary B.

The dictionary lifecycle, end to end
------------------------------------

**1. Train** a dictionary on a bounded sample of the ingest stream::

    from repro.curation import IngestPipeline, default_filters, train_on_sample

    pipeline = IngestPipeline(default_filters(canonicalize=True))
    engine, sampler = train_on_sample(
        pipeline.process("chembl_dump.smi"), capacity=100_000, seed=7,
    )

**2. Pin** its identity — name, version and a declared entry count that
turns later truncation into a typed error — and save it::

    from repro.curation import save_pinned

    identity = save_pinned(engine.table, "chembl.dct",
                           name="chembl", version="2026.08")

**3. Serve**: pack libraries with the pinned dictionary; the manifest and
every shard footer record its content hash, loads verify agreement
(:class:`~repro.errors.DictionaryMismatchError` on a wrong or corrupt
dictionary), and ``CorpusServer /stats`` reports the identity::

    from repro.library import pack_library_file

    info = pack_library_file("curated.smi", engine=engine, shards=4)
    info.manifest.dictionary_identity()   # hash pinned, name='chembl'

**4. Migrate**: when a better dictionary lands, re-pack the live library —
old shards untouched until the new manifest validates, readback
byte-identical to the source::

    from repro.curation import repack_library

    result = repack_library("corpus.library", "corpus.v2.library",
                            "chembl-v2.dct", shard_jobs=4)
    result.target_identity.label()

The same loop is exposed on the command line as ``zsmiles ingest``,
``zsmiles train-dict`` and ``zsmiles repack``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".filters": [
        "RecordFilter", "canonical_filter", "carbon_filter", "charge_filter",
        "column_filter", "count_carbons", "default_filters", "is_charged",
        "largest_fragment_filter", "length_filter", "strip_filter",
    ],
    ".lifecycle": [
        "DictionaryIdentity", "content_hash", "identity_of", "load_verified",
        "pin_identity", "save_pinned", "verify_identity",
    ],
    ".pipeline": [
        "DEDUP_STAGE", "IngestPipeline", "IngestStats", "StageCount", "ingest_to_file",
        "ingest_to_store", "iter_source", "tee",
    ],
    ".repack": [
        "RepackResult", "repack_engine", "repack_library", "resolve_dictionary",
    ],
    ".sampling": ["HeadSampler", "ReservoirSampler", "make_sampler", "train_on_sample"],
})
