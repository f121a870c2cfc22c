"""Shared fixtures for the library-serving test suites."""

from __future__ import annotations

import pytest

from repro.dictionary import serialization
from repro.engine import ZSmilesEngine
from repro.library import pack_library
from repro.store import pack_records


@pytest.fixture(scope="module")
def corpus(mixed_corpus_small):
    """120 records: small enough to be fast, enough for multi-shard splits."""
    return mixed_corpus_small[:120]


@pytest.fixture(scope="module")
def engine(plain_codec):
    """Serial engine over the no-preprocessing codec (byte-exact round trips)."""
    with ZSmilesEngine.from_codec(plain_codec, backend="serial") as eng:
        yield eng


@pytest.fixture(scope="module")
def single_shard_path(tmp_path_factory, corpus, engine):
    """The reference layout: the whole corpus in one .zss shard."""
    path = tmp_path_factory.mktemp("single") / "corpus.zss"
    pack_records(path, corpus, engine, records_per_block=8)
    return path


@pytest.fixture()
def dictionary_parses(monkeypatch):
    """Every embedded-dictionary parse made from now on, one entry each."""
    parses: list = []
    loads = serialization.loads

    def counting(*args, **kwargs):
        parses.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(serialization, "loads", counting)
    return parses


@pytest.fixture(scope="module")
def library_dir(tmp_path_factory, corpus, engine):
    """A 3-shard library over the same corpus (blocks of 8)."""
    directory = tmp_path_factory.mktemp("lib") / "corpus.library"
    pack_library(directory, corpus, engine, shards=3, records_per_block=8)
    return directory
