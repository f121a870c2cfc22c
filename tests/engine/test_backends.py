"""Backend-protocol conformance suite.

Every execution backend — serial, process pool and the baseline adapters —
must satisfy the same contract: order-preserving batch operations with one
output per input, a :class:`BatchResult` carrying coherent statistics, and a
lossless round trip.  The suite is parametrized so adding a backend means
adding one factory entry.
"""

from __future__ import annotations

import pytest

from repro.baselines.bzip2_codec import Bzip2LineCodec
from repro.baselines.fsst import FsstCodec
from repro.baselines.shoco import ShocoCodec
from repro.baselines.zsmiles_adapter import ZSmilesBaseline
from repro.engine import (
    BaselineBackend,
    CompressionBackend,
    EngineConfig,
    ProcessPoolBackend,
    SerialBackend,
    available_backends,
    create_backend,
    register_backend,
)


def _serial(codec, corpus):
    return SerialBackend(codec)


def _process(codec, corpus):
    return ProcessPoolBackend(codec, EngineConfig(jobs=2, chunk_size=16))


def _bzip2(codec, corpus):
    return BaselineBackend.fitted(Bzip2LineCodec(), corpus)


def _shoco(codec, corpus):
    return BaselineBackend.fitted(ShocoCodec(), corpus)


def _fsst(codec, corpus):
    return BaselineBackend.fitted(FsstCodec(), corpus)


def _zsmiles_baseline(codec, corpus):
    return BaselineBackend.fitted(ZSmilesBaseline(preprocessing=False, lmax=6), corpus)


#: name -> factory(codec, corpus) for every backend under conformance test.
BACKEND_FACTORIES = {
    "serial": _serial,
    "process": _process,
    "baseline-bzip2-line": _bzip2,
    "baseline-shoco": _shoco,
    "baseline-fsst": _fsst,
    "baseline-zsmiles": _zsmiles_baseline,
}


@pytest.fixture(scope="module")
def corpus(mixed_corpus_small):
    # Small slice: the process backend pays a real pool spawn per instance.
    return mixed_corpus_small[:48]


@pytest.fixture(scope="module", params=sorted(BACKEND_FACTORIES))
def backend(request, plain_codec, corpus):
    instance = BACKEND_FACTORIES[request.param](plain_codec, corpus)
    yield instance
    closer = getattr(instance, "close", None)
    if closer is not None:
        closer()


class TestProtocolConformance:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, CompressionBackend)
        assert isinstance(backend.name, str) and backend.name

    def test_compress_batch_shape(self, backend, corpus):
        result = backend.compress_batch(corpus)
        assert len(result.records) == len(corpus)
        assert result.stats.lines == len(corpus)
        assert result.stats.original_bytes == sum(len(s) + 1 for s in corpus)
        assert result.stats.compressed_bytes > 0
        assert result.wall_time >= 0.0
        assert result.backend == backend.name

    def test_round_trip_restores_records(self, backend, corpus):
        # Backends here wrap codecs without preprocessing, so the round trip
        # is byte-exact on the raw records.
        compressed = backend.compress_batch(corpus)
        restored = backend.decompress_batch(compressed.records)
        assert restored.records == list(corpus)
        assert restored.stats.lines == len(corpus)

    def test_order_preserved(self, backend, corpus):
        # Compressing a reversed batch must give the reversed compressions.
        forward = backend.compress_batch(corpus).records
        backward = backend.compress_batch(list(reversed(corpus))).records
        assert backward == list(reversed(forward))

    def test_empty_batch(self, backend):
        result = backend.compress_batch([])
        assert result.records == []
        assert result.stats.lines == 0
        assert result.stats.ratio == 1.0


class TestSerialProcessParity:
    def test_process_output_is_byte_identical_to_serial(self, plain_codec, corpus):
        serial = SerialBackend(plain_codec)
        with ProcessPoolBackend(plain_codec, EngineConfig(jobs=2, chunk_size=7)) as pool:
            assert pool.compress_batch(corpus).records == serial.compress_batch(corpus).records
            compressed = serial.compress_batch(corpus).records
            assert (
                pool.decompress_batch(compressed).records
                == serial.decompress_batch(compressed).records
            )

    def test_stats_match_between_backends(self, plain_codec, corpus):
        serial = SerialBackend(plain_codec)
        with ProcessPoolBackend(plain_codec, EngineConfig(jobs=2, chunk_size=7)) as pool:
            a = serial.compress_batch(corpus).stats
            b = pool.compress_batch(corpus).stats
        assert (a.lines, a.original_bytes, a.compressed_bytes, a.matches, a.escapes) == (
            b.lines, b.original_bytes, b.compressed_bytes, b.matches, b.escapes
        )


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "serial" in names
        assert "process" in names

    def test_unknown_backend_rejected(self, plain_codec):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("definitely-not-a-backend", plain_codec)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("serial", SerialBackend)

    def test_registered_backend_is_creatable(self, plain_codec):
        backend = create_backend("serial", plain_codec)
        assert isinstance(backend, SerialBackend)
