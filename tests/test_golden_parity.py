"""Golden-parity tests: the on-disk formats are pinned byte for byte.

``tests/fixtures/`` commits a small corpus together with the exact bytes the
pipeline must produce for it — the per-line codec output (``corpus.zsmi``),
the trained dictionary (``golden.dct``) and the packed block store
(``corpus.zss``).  These tests fail when any refactor changes the compressed
representation, which is a format break for every already-written library.

If a break is intentional (e.g. a versioned layout change), regenerate the
fixtures with ``tests/fixtures/regenerate.py`` and say so in the PR.
"""

from __future__ import annotations

import io

import pytest

from repro.core.codec import ZSmilesCodec
from repro.core.streaming import read_lines
from repro.engine import ZSmilesEngine, available_backends
from repro.library import CorpusLibrary
from repro.store import DICTIONARY_META_KEY, pack_records
from repro.store.writer import ShardWriter

from .fixtures.regenerate import CORPUS, RECORDS_PER_BLOCK, TRAIN_KWARGS, FIXTURES


@pytest.fixture(scope="module")
def golden_codec() -> ZSmilesCodec:
    """The pinned codec: golden dictionary, no preprocessing."""
    return ZSmilesCodec.from_dictionary(FIXTURES / "golden.dct", preprocessing=False)


@pytest.fixture(scope="module")
def golden_compressed() -> list[str]:
    """The pinned per-line compressed records."""
    return list(read_lines(FIXTURES / "corpus.zsmi"))


class TestFixtureIntegrity:
    def test_corpus_file_matches_pinned_list(self):
        assert list(read_lines(FIXTURES / "corpus.smi")) == CORPUS

    def test_training_reproduces_golden_dictionary(self, golden_codec):
        from repro.dictionary import serialization

        retrained = ZSmilesCodec.train(CORPUS, **TRAIN_KWARGS)
        assert serialization.dumps(retrained.table) == (
            FIXTURES / "golden.dct"
        ).read_text(encoding="utf-8")


class TestCodecParity:
    def test_per_line_codec_reproduces_golden_bytes(self, golden_codec, golden_compressed):
        assert [golden_codec.compress(s) for s in CORPUS] == golden_compressed

    def test_decompression_inverts_golden_bytes(self, golden_codec, golden_compressed):
        assert [golden_codec.decompress(z) for z in golden_compressed] == CORPUS


class TestEngineBackendParity:
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_backend_reproduces_golden_bytes(self, backend, golden_codec, golden_compressed):
        with ZSmilesEngine.from_codec(golden_codec, backend=backend, jobs=2) as engine:
            result = engine.compress_batch(CORPUS, backend=backend)
        assert result.records == golden_compressed

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_backend_inverts_golden_bytes(self, backend, golden_codec, golden_compressed):
        with ZSmilesEngine.from_codec(golden_codec, backend=backend, jobs=2) as engine:
            result = engine.decompress_batch(golden_compressed, backend=backend)
        assert result.records == CORPUS


class TestStoreParity:
    def test_packing_reproduces_golden_store_bytes(self, golden_codec):
        buffer = io.BytesIO()
        with ZSmilesEngine.from_codec(golden_codec, backend="serial") as engine:
            pack_records(
                buffer, CORPUS, engine,
                records_per_block=RECORDS_PER_BLOCK, embed_dictionary=True,
            )
        assert buffer.getvalue() == (FIXTURES / "corpus.zss").read_bytes()

    def test_parallel_packing_reproduces_golden_store_bytes(self, golden_codec):
        buffer = io.BytesIO()
        with ZSmilesEngine.from_codec(golden_codec, backend="process", jobs=2) as engine:
            # chunk well below the corpus size so several workers really run
            engine.config = engine.config.replace(chunk_size=8)
            with ShardWriter(
                buffer, engine=engine, records_per_block=RECORDS_PER_BLOCK,
                backend="process", batch_blocks=2, embed_dictionary=True,
            ) as writer:
                writer.add_many(CORPUS)
                writer.close()
        assert buffer.getvalue() == (FIXTURES / "corpus.zss").read_bytes()

    def test_golden_store_serves_original_records(self):
        with CorpusLibrary.open(FIXTURES / "corpus.zss") as store:
            assert len(store) == len(CORPUS)
            assert list(store.iter_all()) == CORPUS
            for index in (0, 7, 8, len(CORPUS) - 1):
                assert store.get(index) == CORPUS[index]

    def test_golden_store_payload_is_per_line_codec_output(self, golden_compressed):
        with CorpusLibrary.open(FIXTURES / "corpus.zss") as store:
            stored = [store.get_raw(i) for i in range(len(store))]
        assert stored == golden_compressed

    def test_golden_store_embeds_golden_dictionary(self):
        with CorpusLibrary.open(FIXTURES / "corpus.zss") as store:
            embedded = store.shard(0).metadata[DICTIONARY_META_KEY]
        assert embedded == (FIXTURES / "golden.dct").read_text(encoding="utf-8")
