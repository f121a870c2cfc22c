"""Micro-benchmarks: per-record and corpus-level throughput of the codec.

These do not correspond to a specific paper table; they quantify the cost of
the Python implementation (the paper's C++/CUDA numbers are wall-clock on real
hardware) and guard against performance regressions in the hot paths:
per-line compression, per-line decompression, dictionary training and
random-access reads.

``test_codec_kernel_vs_reference`` additionally records the flat-array
kernel's batch throughput against the reference per-line path in
``benchmarks/results/BENCH_codec.json`` (git-ignored, so test runs leave
the tree clean) — the machine-readable perf trajectory of the codec hot loop.  It asserts byte
parity, never timings, so CI can run it at smoke scale without flaking.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.random_access import LineIndex, RandomAccessReader
from repro.core.streaming import write_lines
from repro.dictionary.generator import train_dictionary
from repro.engine import ZSmilesEngine
from repro.preprocess.ring_renumber import renumber_rings

#: Machine-readable codec-throughput record (committed perf trajectory).


@pytest.fixture(scope="module")
def sample_lines(corpus):
    return corpus[:500]


def test_compress_single_record(benchmark, shared_codec):
    smiles = "CC(C)Cc1ccc(cc1)C(C)C(=O)OC2CCC(CC2)N3CCOCC3"
    compressed = benchmark(shared_codec.compress, smiles)
    assert shared_codec.decompress(compressed) == shared_codec.preprocess(smiles)


def test_decompress_single_record(benchmark, shared_codec):
    smiles = "CC(C)Cc1ccc(cc1)C(C)C(=O)OC2CCC(CC2)N3CCOCC3"
    compressed = shared_codec.compress(smiles)
    restored = benchmark(shared_codec.decompress, compressed)
    assert restored == shared_codec.preprocess(smiles)


def test_compress_corpus_batch(benchmark, shared_codec, sample_lines):
    engine = ZSmilesEngine.from_codec(shared_codec, backend="kernel")
    result = benchmark.pedantic(
        engine.compress_batch, args=(sample_lines,), rounds=1, iterations=1
    )
    assert len(result.records) == len(sample_lines)


def test_ring_renumbering_throughput(benchmark):
    smiles = "C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=C(C=C2)C3=CC=CC=C3"
    out = benchmark(renumber_rings, smiles)
    assert out.count("0") >= 2


def test_dictionary_training(benchmark, corpus, scale):
    sample = corpus[: min(500, scale.training_size)]
    table = benchmark.pedantic(
        lambda: train_dictionary(sample, lmax=8), rounds=1, iterations=1
    )
    assert len(table.trained_entries) > 0


def test_random_access_fetch(benchmark, shared_codec, sample_lines, tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench_ra")
    smi = directory / "lib.smi"
    zsmi = directory / "lib.zsmi"
    write_lines(smi, sample_lines)
    ZSmilesEngine.from_codec(shared_codec, backend="kernel").compress_file(smi, zsmi)
    index = LineIndex.build(zsmi)
    reader = RandomAccessReader(zsmi, index=index, codec=shared_codec)
    reader.open()
    try:
        value = benchmark(reader.line, len(sample_lines) // 2)
        assert value == shared_codec.preprocess(sample_lines[len(sample_lines) // 2])
    finally:
        reader.close()


def _throughput(seconds: float, lines: int, input_bytes: int) -> dict:
    """lines/sec and MB/sec for one timed pass (guarding zero clocks)."""
    seconds = max(seconds, 1e-9)
    return {
        "seconds": round(seconds, 6),
        "lines_per_sec": round(lines / seconds, 1),
        "mb_per_sec": round(input_bytes / seconds / 1e6, 3),
    }


def test_codec_kernel_vs_reference(shared_codec, corpus, scale, results_dir):
    """Batch compression/decompression: flat-array kernel vs reference oracle.

    Asserts byte parity (the kernel contract) and writes ``BENCH_codec.json``;
    timings are recorded, never gated, so the test is CI-safe at any scale.
    """
    sample = corpus[: min(2000, len(corpus))]
    input_bytes = sum(len(s) + 1 for s in sample)
    with ZSmilesEngine.from_codec(shared_codec) as engine:
        reference = engine.backend("serial")
        kernel = engine.backend("kernel")
        # Warm both paths (automaton build, caches) outside the timed region.
        warm = sample[:32]
        reference.compress_batch(warm)
        kernel.compress_batch(warm)

        start = time.perf_counter()
        ref_compressed = reference.compress_batch(sample)
        ref_compress_s = time.perf_counter() - start

        start = time.perf_counter()
        kernel_compressed = kernel.compress_batch(sample)
        kernel_compress_s = time.perf_counter() - start

        assert kernel_compressed.records == ref_compressed.records
        assert (
            kernel_compressed.stats.matches,
            kernel_compressed.stats.escapes,
        ) == (ref_compressed.stats.matches, ref_compressed.stats.escapes)

        compressed = ref_compressed.records
        compressed_bytes = sum(len(s) + 1 for s in compressed)

        start = time.perf_counter()
        ref_restored = reference.decompress_batch(compressed)
        ref_decompress_s = time.perf_counter() - start

        start = time.perf_counter()
        kernel_restored = kernel.decompress_batch(compressed)
        kernel_decompress_s = time.perf_counter() - start

        assert kernel_restored.records == ref_restored.records

    payload = {
        "benchmark": "codec_block_kernel_vs_reference",
        "scale": os.environ.get("ZSMILES_BENCH_SCALE", "benchmark"),
        "lines": len(sample),
        "input_bytes": input_bytes,
        "compressed_bytes": compressed_bytes,
        "compress": {
            "reference": _throughput(ref_compress_s, len(sample), input_bytes),
            "kernel": _throughput(kernel_compress_s, len(sample), input_bytes),
            "speedup": round(ref_compress_s / max(kernel_compress_s, 1e-9), 2),
        },
        "decompress": {
            "reference": _throughput(ref_decompress_s, len(sample), compressed_bytes),
            "kernel": _throughput(kernel_decompress_s, len(sample), compressed_bytes),
            "speedup": round(ref_decompress_s / max(kernel_decompress_s, 1e-9), 2),
        },
        "parity": "byte-identical",
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    bench_path = results_dir / "BENCH_codec.json"
    bench_path.write_text(text, encoding="utf-8")
    print(
        f"\ncodec kernel vs reference: compress {payload['compress']['speedup']}x, "
        f"decompress {payload['decompress']['speedup']}x "
        f"({len(sample)} lines) -> {bench_path}"
    )


def test_parallel_codec_batch(benchmark, shared_codec, sample_lines):
    """Process-pool backend on a batch (pool start-up included)."""
    with ZSmilesEngine.from_codec(
        shared_codec, backend="process", jobs=2, chunk_size=128
    ) as engine:
        result = benchmark.pedantic(
            engine.compress_batch, args=(sample_lines,), rounds=1, iterations=1
        )
    assert len(result.records) == len(sample_lines)
