"""``sample(n, seed)`` across every local reader tier.

The protocol contract: every :class:`~repro.store.RecordReader` draws with
``random.Random(seed).sample(range(total), min(n, total))``, sorted —
exactly the semantics of the server's ``GET /records:sample`` — so a
campaign (or any consumer) sampling through ``open_reader`` gets the same
records whether the corpus is a flat file, one shard, a sharded library or
an HTTP replica list.
"""

from __future__ import annotations

import random

import pytest

from repro.core.random_access import LineIndex, RandomAccessReader
from repro.engine import ZSmilesEngine
from repro.errors import RandomAccessError
from repro.library import CorpusLibrary, pack_library
from repro.store import ShardReader, pack_records


def expected_draw(total: int, n: int, seed) -> list[int]:
    return sorted(random.Random(seed).sample(range(total), min(n, total)))


@pytest.fixture(scope="module")
def corpus(mixed_corpus_small):
    return mixed_corpus_small[:90]


@pytest.fixture(scope="module")
def flat_reader(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("sample_flat") / "corpus.smi"
    path.write_text("\n".join(corpus) + "\n", encoding="utf-8")
    LineIndex.build(path).save(path.with_suffix(".zsx"))
    with RandomAccessReader(path) as reader:
        yield reader


@pytest.fixture(scope="module")
def store_reader(tmp_path_factory, corpus, plain_codec):
    path = tmp_path_factory.mktemp("sample_store") / "corpus.zss"
    with ZSmilesEngine.from_codec(plain_codec, backend="serial") as engine:
        pack_records(path, corpus, engine, records_per_block=8)
    with ShardReader(path) as reader:
        yield reader


@pytest.fixture(scope="module")
def library_reader(tmp_path_factory, corpus, plain_codec):
    directory = tmp_path_factory.mktemp("sample_lib") / "corpus.library"
    with ZSmilesEngine.from_codec(plain_codec, backend="serial") as engine:
        pack_library(directory, corpus, engine, shards=3, records_per_block=8)
    with CorpusLibrary.open(directory) as library:
        yield library


READERS = ["flat_reader", "store_reader", "library_reader"]


@pytest.mark.parametrize("reader_fixture", READERS)
class TestSampleContract:
    @pytest.fixture()
    def reader(self, reader_fixture, request):
        return request.getfixturevalue(reader_fixture)

    def test_indices_follow_the_shared_semantics(self, reader, corpus):
        indices, records = reader.sample(10, seed=42)
        assert indices == expected_draw(len(corpus), 10, 42)
        assert records == [corpus[i] for i in indices]

    def test_seeded_draws_repeat(self, reader):
        assert reader.sample(7, seed=9) == reader.sample(7, seed=9)

    def test_different_seeds_differ(self, reader):
        assert reader.sample(7, seed=1) != reader.sample(7, seed=2)

    def test_n_clamped_to_total(self, reader, corpus):
        indices, records = reader.sample(10_000, seed=0)
        assert indices == list(range(len(corpus)))
        assert records == list(corpus)

    def test_zero_sample_empty(self, reader):
        assert reader.sample(0, seed=3) == ([], [])

    def test_negative_n_rejected(self, reader):
        with pytest.raises(RandomAccessError, match=">= 0"):
            reader.sample(-1, seed=0)

    def test_unseeded_draw_is_valid(self, reader, corpus):
        indices, records = reader.sample(5)
        assert len(indices) == len(records) == 5
        assert indices == sorted(indices)
        assert records == [corpus[i] for i in indices]


class TestCrossTierParity:
    def test_every_tier_draws_the_same_records(
        self, flat_reader, store_reader, library_reader
    ):
        draws = {
            name: reader.sample(12, seed=77)
            for name, reader in [
                ("flat", flat_reader),
                ("store", store_reader),
                ("library", library_reader),
            ]
        }
        assert draws["flat"] == draws["store"] == draws["library"]
