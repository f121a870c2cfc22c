"""Byte-parity suite: the flat-array kernel vs the reference oracle.

The kernel (:mod:`repro.engine.kernel`) must reproduce the reference per-line
path **exactly** — output bytes, match/escape statistics, error types and
messages — on the golden fixtures, through every registered engine backend,
and over generated inputs including the nasty cases: escape-heavy non-SMILES
text, empty records, characters beyond Latin-1 (the line-level fallback) and
inputs built from maximum-length dictionary patterns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import ZSmilesCodec
from repro.core.compressor import ParseStrategy
from repro.core.streaming import read_lines
from repro.dictionary.codec_table import CodecTable, DictionaryEntry
from repro.engine import EngineConfig, ZSmilesEngine, available_backends
from repro.engine.backends import KernelBackend, SerialBackend
from repro.engine.kernel import BATCH_MIN_LINES, BlockKernel, CodecAutomaton
from repro.errors import CompressionError, DecompressionError

from ..conftest import CURATED_SMILES
from ..fixtures.regenerate import CORPUS, FIXTURES


# --------------------------------------------------------------------------- #
# Shared codecs / kernels
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def golden_codec() -> ZSmilesCodec:
    return ZSmilesCodec.from_dictionary(FIXTURES / "golden.dct", preprocessing=False)

@pytest.fixture(scope="module")
def golden_compressed() -> list[str]:
    return list(read_lines(FIXTURES / "corpus.zsmi"))


def reference_records(codec: ZSmilesCodec, lines: list[str]):
    records = [codec.compress_record(line) for line in lines]
    return (
        [r.compressed for r in records],
        sum(r.matches for r in records),
        sum(r.escapes for r in records),
    )


# --------------------------------------------------------------------------- #
# Golden-fixture parity
# --------------------------------------------------------------------------- #
class TestGoldenParity:
    def test_kernel_reproduces_golden_bytes(self, golden_codec, golden_compressed):
        kernel = BlockKernel(golden_codec)
        records, matches, escapes = kernel.compress_block(CORPUS)
        assert records == golden_compressed
        _, ref_matches, ref_escapes = reference_records(golden_codec, CORPUS)
        assert (matches, escapes) == (ref_matches, ref_escapes)

    def test_kernel_inverts_golden_bytes(self, golden_codec, golden_compressed):
        kernel = BlockKernel(golden_codec)
        assert kernel.decompress_block(golden_compressed) == CORPUS

    def test_kernel_backend_is_default_in_process_route(self, golden_codec):
        engine = ZSmilesEngine.from_codec(golden_codec)
        result = engine.compress_batch(CORPUS)
        assert result.backend == "kernel"

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_every_backend_matches_kernel_bytes(
        self, backend, golden_codec, golden_compressed
    ):
        with ZSmilesEngine.from_codec(golden_codec, backend=backend, jobs=2) as engine:
            result = engine.compress_batch(CORPUS, backend=backend)
        assert result.records == golden_compressed


class TestAutomatonStructure:
    def test_state_count_matches_trie_size(self, golden_codec):
        automaton = CodecAutomaton(golden_codec.table)
        # One state per distinct pattern prefix plus the root.
        prefixes = {
            pattern[:k]
            for pattern in golden_codec.table.patterns()
            for k in range(1, len(pattern) + 1)
        }
        assert automaton.num_states == len(prefixes) + 1

    def test_max_pattern_length_mirrors_table(self, golden_codec):
        automaton = CodecAutomaton(golden_codec.table)
        assert automaton.max_pattern_length == golden_codec.table.max_pattern_length

    def test_non_latin1_table_is_unsupported(self):
        table = CodecTable(
            [DictionaryEntry(symbol="Ā", pattern="zz", seeded=False)],
            prepopulation="none",
        )
        assert CodecAutomaton.try_from_table(table) is None

    def test_non_latin1_table_falls_back_to_reference(self):
        table = CodecTable(
            [
                DictionaryEntry(symbol="a", pattern="a", seeded=True),
                DictionaryEntry(symbol="Ā", pattern="zz", seeded=False),
            ],
            prepopulation="none",
        )
        codec = ZSmilesCodec(table)
        kernel = BlockKernel(codec)
        assert kernel.automaton is None
        lines = ["azza", "", "qq"]
        expected, matches, escapes = reference_records(codec, lines)
        assert kernel.compress_block(lines) == (expected, matches, escapes)
        assert kernel.decompress_block(expected) == lines


# --------------------------------------------------------------------------- #
# Strategy / preprocessing / stats parity on generated corpora
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("strategy", ["optimal", "greedy"])
@pytest.mark.parametrize("preprocessing", [True, False])
class TestBackendParity:
    def test_kernel_matches_serial_bytes_and_stats(
        self, strategy, preprocessing, mixed_corpus_small
    ):
        engine = ZSmilesEngine.train(
            mixed_corpus_small,
            EngineConfig(preprocessing=preprocessing, strategy=strategy, lmax=7),
        )
        corpus = mixed_corpus_small[:120] + CURATED_SMILES + ["", "C", "!weird?"]
        serial = engine.compress_batch(corpus, backend="serial")
        kernel = engine.compress_batch(corpus, backend="kernel")
        assert kernel.records == serial.records
        assert (kernel.stats.matches, kernel.stats.escapes) == (
            serial.stats.matches,
            serial.stats.escapes,
        )
        assert (kernel.stats.original_bytes, kernel.stats.compressed_bytes) == (
            serial.stats.original_bytes,
            serial.stats.compressed_bytes,
        )
        restored_serial = engine.decompress_batch(serial.records, backend="serial")
        restored_kernel = engine.decompress_batch(serial.records, backend="kernel")
        assert restored_kernel.records == restored_serial.records


class TestEdgeCaseParity:
    def test_empty_batch_and_empty_lines(self, plain_codec):
        kernel = BlockKernel(plain_codec)
        assert kernel.compress_block([]) == ([], 0, 0)
        assert kernel.compress_block(["", ""])[0] == ["", ""]
        assert kernel.decompress_block([]) == []
        assert kernel.decompress_block([""]) == [""]

    def test_escape_heavy_input(self, plain_codec):
        # Characters with no single-char dictionary coverage escape 1:1.
        lines = ["!!!???", "x y z", "\x7f\x80\xff", "a!b?c"]
        expected, matches, escapes = reference_records(plain_codec, lines)
        assert BlockKernel(plain_codec).compress_block(lines) == (
            expected,
            matches,
            escapes,
        )

    def test_max_pattern_length_runs(self, plain_codec):
        lmax = plain_codec.table.max_pattern_length
        longest = max(plain_codec.table.patterns(), key=len)
        lines = [longest, longest * 3, longest[:-1], "C" * (lmax * 4 + 1)]
        expected, matches, escapes = reference_records(plain_codec, lines)
        assert BlockKernel(plain_codec).compress_block(lines) == (
            expected,
            matches,
            escapes,
        )

    def test_non_latin1_line_falls_back_per_line(self, plain_codec):
        kernel = BlockKernel(plain_codec)
        assert kernel.automaton is not None
        lines = ["CCO", "CαC", "世界", ""]
        expected, matches, escapes = reference_records(plain_codec, lines)
        assert kernel.compress_block(lines) == (expected, matches, escapes)
        assert kernel.decompress_block(expected) == lines

    def test_line_terminator_rejected_like_reference(self, plain_codec):
        kernel = BlockKernel(plain_codec)
        with pytest.raises(CompressionError, match="line terminators"):
            kernel.compress_block(["C\nC"])
        with pytest.raises(DecompressionError, match="line terminators"):
            kernel.decompress_block(["C\rC"])

    def test_dangling_escape_error_matches_reference(self, plain_codec):
        kernel = BlockKernel(plain_codec)
        with pytest.raises(DecompressionError) as kernel_error:
            kernel.decompress_block(["CC "])
        with pytest.raises(DecompressionError) as reference_error:
            plain_codec.decompress("CC ")
        assert str(kernel_error.value) == str(reference_error.value)

    def test_unknown_symbol_error_matches_reference(self, plain_codec):
        unknown = next(
            chr(code)
            for code in range(1, 256)
            if chr(code) not in (" ", "\n", "\r")
            and plain_codec.table.pattern_for(chr(code)) is None
        )
        kernel = BlockKernel(plain_codec)
        with pytest.raises(DecompressionError) as kernel_error:
            kernel.decompress_block([unknown])
        with pytest.raises(DecompressionError) as reference_error:
            plain_codec.decompress(unknown)
        assert str(kernel_error.value) == str(reference_error.value)

    def test_escaped_space_round_trips(self, plain_codec):
        # A literal space compresses to escape-marker + space (two spaces).
        line = "a b"
        kernel = BlockKernel(plain_codec)
        compressed, _, _ = kernel.compress_block([line])
        assert compressed == [plain_codec.compress(line)]
        assert kernel.decompress_block(compressed) == [line]


# --------------------------------------------------------------------------- #
# Hypothesis property: parity over generated SMILES-ish text
# --------------------------------------------------------------------------- #
#: Alphabet mixing SMILES characters, escape-forcing punctuation and Latin-1
#: extremes; separate strategy injects astral characters for the fallback.
_SMILES_ISH = st.text(
    alphabet="CNOPSFIclnos()[]123456789%=#-+@H/\\.*"
    + "!?_^"      # escape-forcing printable noise
    + "\x7f\xfe"  # Latin-1 boundary
    + "Δ",   # beyond Latin-1: forces the per-line reference fallback
    max_size=40,
)


class TestHypothesisParity:
    @given(lines=st.lists(_SMILES_ISH, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_generated_lines_match_reference(self, plain_codec, lines):
        kernel = BlockKernel(plain_codec)
        expected, matches, escapes = reference_records(plain_codec, lines)
        assert kernel.compress_block(lines) == (expected, matches, escapes)
        assert kernel.decompress_block(expected) == lines

    @given(lines=st.lists(_SMILES_ISH, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_generated_lines_match_greedy_reference(self, plain_codec, lines):
        greedy_codec = ZSmilesCodec(
            plain_codec.table,
            pipeline=plain_codec.pipeline,
            strategy=ParseStrategy.GREEDY,
        )
        kernel = BlockKernel(greedy_codec)
        expected, matches, escapes = reference_records(greedy_codec, lines)
        assert kernel.compress_block(lines) == (expected, matches, escapes)


# --------------------------------------------------------------------------- #
# Batch DP: whole batches at once, against the serial backend
# --------------------------------------------------------------------------- #
#: Every Latin-1 character a line may hold: all but the line terminators.
_LATIN1 = st.characters(max_codepoint=0xFF, exclude_characters="\n\r")


@pytest.fixture(scope="module", params=[5, 8, 15], ids=lambda lmax: f"lmax{lmax}")
def batch_engine(request, mixed_corpus_small):
    """An engine per Figure 5 ``Lmax``, without preprocessing, so every
    generated character reaches the parse."""
    engine = ZSmilesEngine.train(
        mixed_corpus_small, EngineConfig(preprocessing=False, lmax=request.param)
    )
    yield engine
    engine.close()


def _batch_lines(engine, corpus):
    """Lines for one batch: SMILES, SMILES-like and arbitrary Latin-1 text,
    empty lines, runs of exactly the longest pattern length, long lines."""
    lmax = engine.table.max_pattern_length
    longest = sorted(p for p in engine.table.patterns() if len(p) == lmax)
    piece = st.one_of(
        st.sampled_from(corpus),
        _SMILES_ISH,
        st.text(_LATIN1, max_size=60),
        st.lists(st.sampled_from(longest), min_size=1, max_size=5).map("".join),
    )
    return st.one_of(
        st.sampled_from(corpus),
        piece,
        st.just(""),
        st.text(st.sampled_from(" C("), max_size=12),   # escapes and short walks
        st.tuples(piece, st.integers(20, 120)).map(lambda pair: pair[0] * pair[1]),
    )


def _assert_serial_parity(engine, lines):
    serial = engine.compress_batch(lines, backend="serial")
    kernel = engine.compress_batch(lines, backend="kernel")
    assert kernel.records == serial.records
    assert (kernel.stats.matches, kernel.stats.escapes) == (
        serial.stats.matches,
        serial.stats.escapes,
    )


class TestBatchParity:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_generated_batches_match_serial(self, batch_engine, mixed_corpus_small, data):
        line = _batch_lines(batch_engine, mixed_corpus_small)
        size = data.draw(st.integers(1, 300), label="size")
        lines = data.draw(st.lists(line, min_size=size, max_size=size), label="lines")
        _assert_serial_parity(batch_engine, lines)

    def test_batch_out_of_length_order(self, batch_engine, mixed_corpus_small):
        # Longest first, then interleaved, so sorting by length moves every
        # line; beyond-Latin-1 and empty lines keep their slots too.
        by_length = sorted(mixed_corpus_small, key=len, reverse=True)
        lines = by_length[::2] + ["", "CΔC", " "] + by_length[1::2]
        assert sorted(lines, key=len) != lines
        _assert_serial_parity(batch_engine, lines)
        assert batch_engine.backend("kernel").kernel.automaton._batch._table is not None   # the batch DP ran

    def test_lines_wider_than_a_group(self, batch_engine, mixed_corpus_small):
        # One line past a group's cell budget, and lines of several thousand
        # characters among ordinary ones, take the per-line loop.
        batch_engine.compress_batch(mixed_corpus_small[:64], backend="kernel")
        cells = batch_engine.backend("kernel").kernel.automaton._batch.cells
        wide = ("CC(=O)N" * (cells // 7 + 2))[: cells + 1]
        lines = mixed_corpus_small[:100] + [wide, "c1ccccc1" * 400, "Cl" * 2500]
        _assert_serial_parity(batch_engine, lines)

    def test_dense_groups_either_side_of_the_crossover(self, batch_engine):
        # Equal-length lines: BATCH_MIN_LINES - 1 take the per-line loop,
        # BATCH_MIN_LINES the batch DP; both give the serial bytes.
        for count in (BATCH_MIN_LINES - 1, BATCH_MIN_LINES):
            kernel = BlockKernel(batch_engine.codec)
            lines = [f"CC(C)N{i % 10}CCO" for i in range(count)]
            expected = batch_engine.compress_batch(lines, backend="serial")
            records, matches, escapes = kernel.compress_block(lines)
            assert records == expected.records
            assert (matches, escapes) == (expected.stats.matches, expected.stats.escapes)
            built = kernel.automaton._batch._table is not None
            assert built == (count >= BATCH_MIN_LINES)


def _decoded_or_error(decode, lines):
    """*decode*'s output for *lines*, or the text of the DecompressionError."""
    try:
        return decode(lines)
    except DecompressionError as exc:
        return f"DecompressionError: {exc}"


class TestDecodeFuzz:
    """Arbitrary compressed-side text, not only compressor output: the
    kernel's decode (its C-level fast path and the per-byte loop behind it)
    must decode exactly what the reference decodes and reject exactly what
    it rejects, with the same message."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_decodes_or_fails_like_reference(self, plain_codec, data):
        symbols = sorted(entry.symbol for entry in plain_codec.table)
        unit = st.one_of(
            st.sampled_from(symbols),
            st.just(" "),                          # escape: "  " escapes a space; last, it dangles
            st.sampled_from("\r\n"),
            st.characters(max_codepoint=0xFF),     # includes bytes no symbol uses
            st.characters(min_codepoint=0x100),    # beyond Latin-1
        )
        line = st.one_of(st.text(st.sampled_from(symbols), max_size=24), st.text(unit, max_size=24))
        lines = data.draw(st.lists(line, max_size=6), label="lines")
        kernel = BlockKernel(plain_codec)

        def reference(batch):
            return [plain_codec.decompress(item) for item in batch]

        assert _decoded_or_error(kernel.decompress_block, lines) == _decoded_or_error(
            reference, lines
        )
        for item in lines:
            assert _decoded_or_error(kernel.decompress_block, [item]) == _decoded_or_error(
                reference, [item]
            )


# --------------------------------------------------------------------------- #
# Backend-object behaviour
# --------------------------------------------------------------------------- #
class TestKernelBackendSurface:
    def test_batchresult_mirrors_serial(self, plain_codec, mixed_corpus_small):
        corpus = mixed_corpus_small[:40]
        serial = SerialBackend(plain_codec).compress_batch(corpus)
        kernel = KernelBackend(plain_codec).compress_batch(corpus)
        assert kernel.records == serial.records
        assert kernel.backend == "kernel"
        assert kernel.workers == 1 and kernel.chunks == 1
        assert kernel.stats.lines == serial.stats.lines

    def test_concurrent_compress_batches_stay_byte_identical(
        self, plain_codec, mixed_corpus_small
    ):
        # The kernel backend is cached per engine and its DP scratch is
        # shared, so concurrent compress calls must serialize internally;
        # racing threads previously could interleave scratch state.
        import threading

        backend = KernelBackend(plain_codec)
        corpus = mixed_corpus_small[:120]
        expected, _, _ = reference_records(plain_codec, corpus)
        results: dict[int, list[str]] = {}

        def worker(slot: int) -> None:
            for _ in range(5):
                results[slot] = backend.compress_batch(corpus).records

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(records == expected for records in results.values())

    def test_process_pool_workers_use_kernel(self, plain_codec, mixed_corpus_small):
        # Parity through real worker processes running the kernel chunk path.
        corpus = mixed_corpus_small[:64]
        expected, _, _ = reference_records(plain_codec, corpus)
        with ZSmilesEngine.from_codec(
            plain_codec, backend="process", jobs=2, chunk_size=16
        ) as engine:
            result = engine.compress_batch(corpus, backend="process")
            assert result.records == expected
            restored = engine.decompress_batch(expected, backend="process")
        assert restored.records == corpus
