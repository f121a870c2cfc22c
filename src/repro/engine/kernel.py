"""Flat-array codec kernel: the engine's allocation-free batch hot loop.

The reference parse (:func:`repro.core.shortest_path.optimal_parse`) walks a
pointer-based :class:`~repro.dictionary.trie.TrieNode` graph and allocates one
``ParseStep`` dataclass per chosen edge — clean, but every layer of the system
(engine batches, ``.zss`` block packing, sharded serving) funnels through it,
so its per-character Python overhead multiplies.  This module compiles the
dictionary into a :class:`CodecAutomaton` — the trie flattened into contiguous
integer arrays — and runs the same shortest-path dynamic program over
preallocated integer scratch arrays, emitting straight into a reused
``bytearray``.  No ``TrieNode``, no ``ParseStep``, no per-position objects.

Parity contract
---------------
The kernel is **byte-identical** to the reference path, including the
deterministic tie-break pinned by the golden fixtures (see
:mod:`repro.core.shortest_path`): the escape edge is the initial incumbent,
candidate matches are examined in increasing pattern length, and a candidate
wins only with a *strictly* lower cost.  Statistics (match / escape counts)
and error messages also match the reference exactly.  ``tests/engine/
test_kernel.py`` and ``tests/test_golden_parity.py`` enforce this contract
against the pinned fixtures, every registered backend and a hypothesis
property suite.

Both texts sides of the codec live in Latin-1 (plain SMILES are ASCII;
compressed symbols stop at U+00FF — the paper's "extended ASCII"), which is
what makes flat 256-wide tables possible.  Inputs or tables that step outside
Latin-1 transparently fall back to the reference implementation line by line,
so the kernel never changes behaviour, only speed.

The batch DP
------------
A batch of lines is parsed many lines at a time in numpy, as the paper's
CUDA kernel parses one SMILES per thread block (Section IV-E).  The lines
are sorted by length (stably) and taken in groups of bounded scratch size.
A group is laid out as a right-aligned matrix of bytes, padded with ``\n``,
with one column per text position; since the lines are sorted, the lines
still active at a column form one contiguous slice.  Then, for the whole
group at once:

1. the trie walk goes depth by depth, up to ``max_pattern_length`` steps,
   from every position over a transition table in which an absorbing dead
   state replaces "no edge".  ``\n`` is a safe pad: :class:`CodecTable`
   forbids it in patterns and :meth:`BlockKernel.compress_block` rejects it
   in lines, so every walk dies at its line's end;
2. the backward DP runs column by column, right to left, over every active
   line;
3. a forward walk marks the chosen edges of each line, and the emit writes
   all of them into one buffer, which is sliced into per-line strings.

Each candidate edge is one integer key, ``cost``, then edge length, then
symbol, packed from the high bits down (an escape has length 0), and each
position keeps the minimum key.  The minimum has the lowest cost, and among
equal costs the shortest edge with the escape first, so it is the *first*
minimum in the reference's visiting order (escape incumbent, then matches by
increasing length, replaced only on strict improvement): the pinned
tie-break, in one ``np.minimum.reduce``.  No-match slots hold a sentinel
above every reachable key, and lines too wide for the key's bits take the
per-line loop, so no sum can wrap.  So do groups too sparse for the vector
setup to pay off (see :data:`BATCH_MIN_LINES`).

The numpy tables are built on the first batch compression, like the
automaton's own compression tables (below), so a decode-only kernel never
builds them, and numpy itself is imported then: a process that only
decodes, such as a serving worker, never imports it.

Selection
---------
:class:`BlockKernel` wraps one :class:`~repro.core.codec.ZSmilesCodec` and is
what the execution layers use: the ``"kernel"`` engine backend (the default
in-process path — ``backend="serial"`` reaches the oracle), process-pool
workers, and the ``.zss`` reader's record decode.
"""

from __future__ import annotations

import codecs
import threading
from bisect import bisect_right
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..core.compressor import ParseStrategy
from ..core.shortest_path import ESCAPE_COST as _ESCAPE_COST
from ..core.shortest_path import MATCH_COST as _MATCH_COST
from ..dictionary.codec_table import CodecTable
from ..errors import CompressionError, DecompressionError, ReproError
from ..smiles.alphabet import ESCAPE_CHAR
from ..telemetry import metrics as _metrics

if TYPE_CHECKING:  # imported where the batch DP first runs (see above)
    import numpy as np

#: Transition-table width: one slot per Latin-1 code point.
ALPHABET_SIZE = 256

#: Byte value of the escape marker (a space).
ESCAPE_BYTE = ord(ESCAPE_CHAR)

#: A group of the batch DP takes the per-line loop unless its characters
#: fill this many lines of its width: each column costs the batch DP a fixed
#: set of numpy calls, which fewer lines cannot repay.  The crossover for
#: equal-length lines, measured on a 2-vCPU host, is about 17 lines of 20
#: characters, 12 of 45 (about the mean SMILES length) and 10 of 90.
BATCH_MIN_LINES = 12

#: Scratch of one batch DP group, in (position, pattern depth) slots.
_GROUP_SLOTS = 1 << 18

#: Key of a no-match slot, above every key a reachable edge can have.
_NO_MATCH = 1 << 30

#: Pad byte of the batch matrix: in no pattern and in no line.
_PAD = b"\n"


class KernelUnsupportedError(ReproError):
    """Raised when a codec table cannot be compiled into a flat automaton."""


class _BatchParser:
    """The automaton's compression tables in numpy, and the group parse.

    ``table[(t << 8) | b]`` describes the step from state ``t`` on byte
    ``b``: its low 32 bits hold the next state, times 256, and its high bits
    the key of the match that state ends, or ``_NO_MATCH``.  State 0 is the
    absorbing dead state and automaton state ``s`` is state ``s + 1`` here,
    so the automaton's "no edge" (-1) lands on 0.

    A key packs ``cost << shift | length << 8 | symbol``: costs occupy the
    bits from ``shift`` up, so the cost of a position is its key with the
    low ``shift`` bits cleared.
    """

    __slots__ = ("depth", "shift", "length_mask", "cells", "max_width", "_table")

    def __init__(self, max_length: int):
        self.depth = max(max_length, 1)
        length_bits = self.depth.bit_length()
        self.shift = length_bits + 8
        self.length_mask = (1 << length_bits) - 1
        #: Widest group, in cells (positions times lines).
        self.cells = _GROUP_SLOTS // self.depth
        #: The widest line whose every reachable key stays below _NO_MATCH.
        self.max_width = (_NO_MATCH >> self.shift) // _ESCAPE_COST - 1
        self._table: Optional[np.ndarray] = None

    def _build_table(self, compiled: Tuple[int, List[int], List[int], List[int]]) -> np.ndarray:
        import numpy as np

        num_states, transitions, accept_length, accept_symbol = compiled
        nxt = np.zeros((num_states + 1, ALPHABET_SIZE), dtype=np.int64)
        nxt[1:] = np.array(transitions, dtype=np.int64).reshape(num_states, ALPHABET_SIZE) + 1
        lengths = np.array(accept_length, dtype=np.int64)
        symbols = np.array(accept_symbol, dtype=np.int64)
        accepting = lengths > 0
        key = np.full(num_states + 1, _NO_MATCH, dtype=np.int64)
        key[1:][accepting] = (
            (_MATCH_COST << self.shift) | (lengths[accepting] << 8) | symbols[accepting]
        )
        table = self._table = ((nxt << 8) | (key[nxt] << 32)).ravel()
        return table

    def parse_group(
        self,
        compiled: Tuple[int, List[int], List[int], List[int]],
        lines: Sequence[bytes],
        lengths: Sequence[int],
    ) -> Tuple[List[str], int, int]:
        """Compress non-empty *lines*, sorted by their *lengths*, at once.

        *compiled* is the automaton's compression tables; their numpy form
        is built from them on the first call.
        """
        import numpy as np

        table = self._table
        if table is None:
            table = self._build_table(compiled)
        count = len(lines)
        depth = self.depth
        width = lengths[-1]
        cells = width * count
        # Position-major layout: the cell of position p of line r is
        # p * count + r, so a column is contiguous and so is every active
        # slice of it, and the byte d positions on is d * count cells on.
        pad = _PAD * depth
        rows = np.frombuffer(b"".join([line.rjust(width, _PAD) + pad for line in lines]), np.uint8)
        data = rows.reshape(count, width + depth).T.astype(np.intp, order="C").ravel()

        # 1. The trie walk, from every position at once.  Once most walks
        # have died, only the live ones go on.
        keys = np.empty((depth, cells), dtype=np.int32)
        state = np.full(cells, 1 << 8, dtype=np.intp)   # the root, state 1
        live = None
        for d in range(depth):
            if live is None:
                np.add(state, data[d * count : d * count + cells], out=state)
                step = table[state]
                np.right_shift(step, 32, out=keys[d], casting="unsafe")
                np.bitwise_and(step, 0xFFFFFFFF, out=state)
                if np.count_nonzero(state) * 2 < cells:
                    live = np.flatnonzero(state)
                    state = state[live]
            else:
                state += data[live + d * count]
                step = table[state]
                keys[d].fill(_NO_MATCH)
                keys[d][live] = step >> 32
                state = step & 0xFFFFFFFF
                alive = np.flatnonzero(state)
                live = live[alive]
                state = state[alive]
        # The escape competes with the length-1 match: both lead to p + 1.
        np.minimum(keys[0], _ESCAPE_COST << self.shift, out=keys[0])
        keys = keys.reshape(depth, width, count)

        # 2. The backward DP.  cost[p] is the output length of the cheapest
        # parse from p to the line end, shifted into the key's cost bits;
        # past the line end it is 0, read only beside a no-match key.
        cost = np.zeros((width + depth + 1, count), dtype=np.int32)
        best = np.zeros((width, count), dtype=np.int32)
        candidates = np.empty((depth, count), dtype=np.int32)
        cost_bits = np.int32(-1 << self.shift)
        line_lengths = np.array(lengths, dtype=np.intp)
        first_active = np.searchsorted(line_lengths, width - np.arange(width)).tolist()
        add, smallest, bitwise_and = np.add, np.minimum.reduce, np.bitwise_and
        for p in range(width - 1, -1, -1):
            r = first_active[p]
            slot = candidates[:, r:]
            add(cost[p + 1 : p + 1 + depth, r:], keys[:, p, r:], out=slot)
            chosen = best[p, r:]
            smallest(slot, axis=0, out=chosen)
            bitwise_and(chosen, cost_bits, out=cost[p, r:])

        # 3. The forward walk marks every line's chosen edges.  Each edge
        # emits at least one byte, so the longest output bounds the steps.
        best = best.ravel()
        flat_cost = cost.ravel()
        starts = (width - line_lengths) * count + np.arange(count)
        out_lengths = flat_cost[starts] >> self.shift
        advance = np.zeros(cells + count, dtype=np.intp)
        np.multiply(np.maximum((best >> 8) & self.length_mask, 1), count, out=advance[:cells])
        on_path = np.zeros(cells + count, dtype=bool)
        cursor = starts.copy()
        for _ in range(int(out_lengths.max())):
            on_path[cursor] = True
            cursor += advance[cursor]

        # The emit: an edge's output offset is its line's offset plus the
        # cost already paid from the line start to the edge.
        edges = np.flatnonzero(on_path[:cells])
        key = best[edges]
        line_of = edges % count
        bounds = np.zeros(count + 1, dtype=np.intp)
        np.cumsum(out_lengths, out=bounds[1:])
        offset = bounds[line_of] + ((flat_cost[starts][line_of] - flat_cost[edges]) >> self.shift)
        out = np.empty(int(bounds[-1]), dtype=np.uint8)
        out[offset] = key & 0xFF
        escaped = ((key >> 8) & self.length_mask) == 0
        at = offset[escaped]
        out[at] = ESCAPE_BYTE
        out[at + 1] = data[edges[escaped]]
        text = out.tobytes().decode("latin-1")
        b = bounds.tolist()
        escapes = int(np.count_nonzero(escaped))
        return [text[b[i] : b[i + 1]] for i in range(count)], edges.size - escapes, escapes


class CodecAutomaton:
    """The dictionary trie compiled into contiguous integer arrays.

    The automaton has one state per trie node.  Three parallel flat arrays
    describe it:

    * ``transitions`` — ``num_states * 256`` ints; ``transitions[(s << 8) | b]``
      is the next state after reading byte ``b`` in state ``s`` (-1 = no edge),
    * ``accept_length`` — pattern length terminating at each state (0 = none),
    * ``accept_symbol`` — symbol byte emitted for that pattern (-1 = none).

    Only compression reads those three arrays, and ``transitions`` is the
    bulk of the automaton (``num_states * 256`` slots), so they are compiled
    on first use: a decode-only automaton — every ``.zss`` reader's — never
    builds them.  The Latin-1 check over the whole table stays eager.  The
    batch DP's numpy form of the same tables is built on the first batch
    compression, so a decode-only automaton never builds it either.

    Decompression reads one more table, ``_decode_map``: the pattern text of
    every symbol byte, ``None`` for the escape marker, the line terminators
    and bytes that are no symbol.  :func:`codecs.charmap_decode` expands a
    record through it in C; a record it cannot map (an escape, an unknown
    symbol) takes the per-byte loop, which decodes or rejects it exactly as
    the reference does.

    The per-line compression paths work over ``bytes`` / ``bytearray`` and
    preallocated integer lists: the DP cost table, the per-position best
    (length, symbol) choice, and the output buffer are built once and reused
    across every line of every block.  Because that scratch state is reused,
    the ``compress_line*`` methods are not re-entrant — each backend /
    worker process owns its own automaton.  ``decompress_line`` is
    re-entrant (it serves concurrent block decodes).
    """

    __slots__ = (
        "table",
        "max_pattern_length",
        "_compiled",
        "_batch",
        "_patterns_by_byte",
        "_decode_map",
        "_cost",
        "_best_length",
        "_best_symbol",
        "_buffer",
    )

    def __init__(self, table: CodecTable):
        self.table = table
        patterns_by_byte: List[Optional[bytes]] = [None] * ALPHABET_SIZE
        for pattern, symbol in self._encoded_entries():
            patterns_by_byte[symbol] = pattern
        self.max_pattern_length = table.max_pattern_length
        #: ``(num_states, transitions, accept_length, accept_symbol)`` once
        #: compiled; assigned as one tuple so a reader never sees half of it.
        self._compiled: Optional[Tuple[int, List[int], List[int], List[int]]] = None
        #: The batch DP, and the same tables in numpy; built on first use.
        self._batch: Optional[_BatchParser] = None
        self._patterns_by_byte = patterns_by_byte
        decode_map = [None if p is None else p.decode("latin-1") for p in patterns_by_byte]
        for byte in (ESCAPE_BYTE, ord("\n"), ord("\r")):
            decode_map[byte] = None
        self._decode_map = tuple(decode_map)
        # Reusable scratch: DP tables sized to the longest line seen so far.
        self._cost: List[int] = []
        self._best_length: List[int] = []
        self._best_symbol: List[int] = []
        self._buffer = bytearray()

    @classmethod
    def try_from_table(cls, table: CodecTable) -> Optional["CodecAutomaton"]:
        """Compile *table*, or ``None`` when it cannot be represented."""
        try:
            return cls(table)
        except KernelUnsupportedError:
            return None

    def _encoded_entries(self) -> List[Tuple[bytes, int]]:
        """``(pattern bytes, symbol byte)`` per table entry, in table order."""
        encoded = []
        for entry in self.table:
            try:
                pattern = entry.pattern.encode("latin-1")
                symbol = entry.symbol.encode("latin-1")
            except UnicodeEncodeError:
                raise KernelUnsupportedError(
                    f"entry {entry.symbol!r} -> {entry.pattern!r} is outside "
                    "Latin-1; the flat automaton cannot represent it"
                ) from None
            encoded.append((pattern, symbol[0]))
        return encoded

    def _compile(self) -> Tuple[int, List[int], List[int], List[int]]:
        """Build the compression tables: the trie as flat integer arrays."""
        transitions: List[int] = [-1] * ALPHABET_SIZE
        accept_length: List[int] = [0]
        accept_symbol: List[int] = [-1]
        num_states = 1
        for pattern, symbol in self._encoded_entries():
            state = 0
            for byte in pattern:
                slot = (state << 8) | byte
                nxt = transitions[slot]
                if nxt < 0:
                    nxt = num_states
                    num_states += 1
                    transitions[slot] = nxt
                    transitions.extend([-1] * ALPHABET_SIZE)
                    accept_length.append(0)
                    accept_symbol.append(-1)
                state = nxt
            accept_length[state] = len(pattern)
            accept_symbol[state] = symbol
        compiled = self._compiled = (num_states, transitions, accept_length, accept_symbol)
        return compiled

    @property
    def num_states(self) -> int:
        """States of the compiled trie, one per pattern prefix plus the root."""
        return (self._compiled or self._compile())[0]

    # ------------------------------------------------------------------ #
    # Compression
    # ------------------------------------------------------------------ #
    def _reserve(self, n: int) -> None:
        """Grow the DP scratch arrays to hold a line of *n* characters."""
        if len(self._cost) <= n:
            grow = n + 1 - len(self._cost)
            self._cost.extend([0] * grow)
            self._best_length.extend([1] * grow)
            self._best_symbol.extend([-1] * grow)

    def compress_line_optimal(self, data: bytes) -> Tuple[str, int, int]:
        """Shortest-path compression of one Latin-1 line.

        Returns ``(compressed, matches, escapes)``; the parse replicates
        :func:`~repro.core.shortest_path.optimal_parse` exactly, tie-break
        included (strict improvement over the escape incumbent, matches
        visited in increasing length).
        """
        n = len(data)
        if n == 0:
            return "", 0, 0
        self._reserve(n)
        _, transitions, accept_length, accept_symbol = self._compiled or self._compile()
        cost = self._cost
        best_length = self._best_length
        best_symbol = self._best_symbol
        cost[n] = 0
        for i in range(n - 1, -1, -1):
            # Escape edge: always available, the incumbent at every position.
            best_cost = _ESCAPE_COST + cost[i + 1]
            chosen_length = 1
            chosen_symbol = -1
            state = 0
            j = i
            while j < n:
                state = transitions[(state << 8) | data[j]]
                if state < 0:
                    break
                j += 1
                length = accept_length[state]
                if length:
                    candidate = _MATCH_COST + cost[j]
                    if candidate < best_cost:
                        best_cost = candidate
                        chosen_length = length
                        chosen_symbol = accept_symbol[state]
            cost[i] = best_cost
            best_length[i] = chosen_length
            best_symbol[i] = chosen_symbol
        return self._emit(data, n, best_length, best_symbol)

    def compress_lines_optimal(self, lines: Sequence[bytes]) -> Tuple[List[str], int, int]:
        """Shortest-path compression of many Latin-1 lines, in input order.

        Returns ``(compressed, matches, escapes)`` with the counts summed
        over the lines; every record is the one :meth:`compress_line_optimal`
        returns.  The lines are sorted by length and parsed by the batch DP
        (see the module docstring) in groups of bounded scratch; a group
        whose characters do not fill :data:`BATCH_MIN_LINES` lines of its
        width, or that is too wide for the batch keys, takes the per-line
        loop instead.
        """
        batch = self._batch
        if batch is None:
            batch = self._batch = _BatchParser(self.max_pattern_length)
        order = sorted(range(len(lines)), key=lambda i: len(lines[i]))
        lengths = [len(lines[i]) for i in order]
        out: List[str] = [""] * len(lines)
        matches = 0
        escapes = 0
        start = bisect_right(lengths, 0)  # empty lines compress to ""
        end = len(order)
        while start < end:
            stop = start + 1
            while stop < end and (stop - start + 1) * lengths[stop] <= batch.cells:
                stop += 1
            group = order[start:stop]
            width = lengths[stop - 1]
            if width <= batch.max_width and sum(lengths[start:stop]) >= BATCH_MIN_LINES * width:
                records, group_matches, group_escapes = batch.parse_group(
                    self._compiled or self._compile(),
                    [lines[i] for i in group],
                    lengths[start:stop],
                )
                matches += group_matches
                escapes += group_escapes
            else:
                records = []
                for i in group:
                    record, line_matches, line_escapes = self.compress_line_optimal(lines[i])
                    records.append(record)
                    matches += line_matches
                    escapes += line_escapes
            for i, record in zip(group, records):
                out[i] = record
            start = stop
        return out, matches, escapes

    def compress_line_greedy(self, data: bytes) -> Tuple[str, int, int]:
        """Longest-match greedy compression of one Latin-1 line."""
        n = len(data)
        if n == 0:
            return "", 0, 0
        _, transitions, accept_length, accept_symbol = self._compiled or self._compile()
        buffer = self._buffer
        del buffer[:]
        matches = 0
        escapes = 0
        pos = 0
        while pos < n:
            state = 0
            j = pos
            longest_end = -1
            longest_symbol = -1
            while j < n:
                state = transitions[(state << 8) | data[j]]
                if state < 0:
                    break
                j += 1
                if accept_length[state]:
                    longest_end = j
                    longest_symbol = accept_symbol[state]
            if longest_end < 0:
                buffer.append(ESCAPE_BYTE)
                buffer.append(data[pos])
                escapes += 1
                pos += 1
            else:
                buffer.append(longest_symbol)
                matches += 1
                pos = longest_end
        return buffer.decode("latin-1"), matches, escapes

    def _emit(
        self, data: bytes, n: int, best_length: List[int], best_symbol: List[int]
    ) -> Tuple[str, int, int]:
        """Walk the chosen edges forward, writing into the reused buffer."""
        buffer = self._buffer
        del buffer[:]
        matches = 0
        escapes = 0
        pos = 0
        while pos < n:
            symbol = best_symbol[pos]
            if symbol < 0:
                buffer.append(ESCAPE_BYTE)
                buffer.append(data[pos])
                escapes += 1
                pos += 1
            else:
                buffer.append(symbol)
                matches += 1
                pos += best_length[pos]
        return buffer.decode("latin-1"), matches, escapes

    # ------------------------------------------------------------------ #
    # Decompression
    # ------------------------------------------------------------------ #
    def decompress_line(self, data: bytes) -> str:
        """Decode one Latin-1 compressed record back to SMILES text.

        Unlike the compression scratch arrays this allocates a local buffer:
        decompression serves concurrent readers (the ``.zss`` reader decodes
        records from multiple threads), so it must stay re-entrant.
        """
        try:
            return codecs.charmap_decode(data, "strict", self._decode_map)[0]
        except UnicodeDecodeError:
            pass  # an escape or an unknown symbol: the loop decodes or rejects it
        n = len(data)
        patterns = self._patterns_by_byte
        buffer = bytearray()
        i = 0
        while i < n:
            byte = data[i]
            if byte == ESCAPE_BYTE:
                i += 1
                if i >= n:
                    raise DecompressionError("dangling escape marker at end of record")
                buffer.append(data[i])
                i += 1
            else:
                pattern = patterns[byte]
                if pattern is None:
                    raise DecompressionError(
                        f"symbol {chr(byte)!r} (U+{byte:04X}) is not in the dictionary"
                    )
                buffer += pattern
                i += 1
        return buffer.decode("latin-1")


class BlockKernel:
    """Batch compression / decompression of one codec through the automaton.

    The kernel owns the fallbacks that keep it a pure optimisation:

    * a table outside Latin-1 means no automaton — every line runs through the
      reference compressor / decompressor;
    * a single line outside Latin-1 (only reachable through escape-heavy
      non-SMILES input) falls back for that line only.

    ``compress_block`` applies the codec's preprocessing pipeline, honours its
    parse strategy (optimal or greedy) and returns the aggregate match /
    escape counters the engine's statistics need.

    Its counters (lines, output bytes and reference fallbacks, by operation)
    are resolved once, at construction, so a one-record call pays no metric
    lookup; the hot loops aggregate locally and report once per call.
    """

    __slots__ = ("codec", "automaton", "_greedy", "_compress_lock", "_counters")

    def __init__(self, codec):
        self.codec = codec
        self.automaton = CodecAutomaton.try_from_table(codec.table)
        self._greedy = codec.compressor.strategy is ParseStrategy.GREEDY
        # The automaton's DP scratch is reused across lines, so concurrent
        # compress calls must serialize.  One acquire per block is noise next
        # to the work, and pure-Python compression holds the GIL anyway —
        # threads never gained compression parallelism here.  Decompression
        # takes no lock: its kernel path is re-entrant by construction.
        self._compress_lock = threading.Lock()
        registry = _metrics.get_registry()
        families = (
            registry.counter(
                "zsmiles_kernel_lines_total",
                "Lines moved through the block kernel, by operation",
                labels=("op",),
            ),
            registry.counter(
                "zsmiles_kernel_bytes_total",
                "Output bytes produced by the block kernel, by operation",
                labels=("op",),
            ),
            registry.counter(
                "zsmiles_kernel_reference_fallback_total",
                "Lines that fell back to the reference codec path, by operation",
                labels=("op",),
            ),
        )
        #: ``op -> (lines, bytes, fallbacks)`` counter children.
        self._counters = {
            op: tuple(family.labels(op) for family in families)
            for op in ("compress", "decompress")
        }

    # ------------------------------------------------------------------ #
    def compress_block(self, lines: Sequence[str]) -> Tuple[List[str], int, int]:
        """Compress *lines*; returns ``(records, matches, escapes)``.

        Thread-safe: the shared DP scratch is guarded, so a cached
        :class:`~repro.engine.backends.KernelBackend` (the engine's default
        in-process path) can be driven from several threads like the
        stateless reference backend could.
        """
        with self._compress_lock:
            return self._compress_block_locked(lines)

    def _compress_block_locked(self, lines: Sequence[str]) -> Tuple[List[str], int, int]:
        automaton = self.automaton
        codec = self.codec
        if automaton is None:
            return self._compress_reference(lines)
        preprocess = codec.pipeline
        out: List[str] = []
        append = out.append
        matches = 0
        escapes = 0
        fallback_lines = 0
        # Lines that encode, and where their records go: they are parsed
        # together once every line has passed the checks below.
        encoded: List[bytes] = []
        slots: List[int] = []
        for raw in lines:
            line = preprocess(raw)
            if "\n" in line or "\r" in line:
                raise CompressionError("input record must not contain line terminators")
            try:
                data = line.encode("latin-1")
            except UnicodeEncodeError:
                record = codec.compressor.compress_record(line)
                append(record.compressed)
                matches += record.matches
                escapes += record.escapes
                fallback_lines += 1
                continue
            slots.append(len(out))
            append("")
            encoded.append(data)
        if self._greedy:
            compressed = []
            for data in encoded:
                record, line_matches, line_escapes = automaton.compress_line_greedy(data)
                compressed.append(record)
                matches += line_matches
                escapes += line_escapes
        else:
            compressed, batch_matches, batch_escapes = automaton.compress_lines_optimal(encoded)
            matches += batch_matches
            escapes += batch_escapes
        for slot, record in zip(slots, compressed):
            out[slot] = record
        metric_lines, metric_bytes, metric_fallbacks = self._counters["compress"]
        metric_lines.inc(len(out))
        metric_bytes.inc(sum(len(record) for record in out))
        if fallback_lines:
            metric_fallbacks.inc(fallback_lines)
        return out, matches, escapes

    def decompress_block(self, lines: Sequence[str]) -> List[str]:
        """Decompress *lines* (one output per input, order preserved)."""
        automaton = self.automaton
        metric_lines, metric_bytes, metric_fallbacks = self._counters["decompress"]
        if automaton is None:
            out = [self.codec.decompress(line) for line in lines]
            metric_lines.inc(len(out))
            metric_bytes.inc(sum(len(r) for r in out))
            metric_fallbacks.inc(len(out))
            return out
        decompress_line = automaton.decompress_line
        reference = self.codec.decompressor.decompress_line
        out: List[str] = []
        append = out.append
        fallback_lines = 0
        out_bytes = 0
        for line in lines:
            if "\n" in line or "\r" in line:
                raise DecompressionError(
                    "compressed record must not contain line terminators"
                )
            try:
                data = line.encode("latin-1")
            except UnicodeEncodeError:
                # Escaped literals beyond U+00FF can only come from non-SMILES
                # input; the reference path decodes (or rejects) them exactly.
                decoded = reference(line)
                append(decoded)
                fallback_lines += 1
                out_bytes += len(decoded)
                continue
            decoded = decompress_line(data)
            append(decoded)
            out_bytes += len(decoded)
        metric_lines.inc(len(out))
        metric_bytes.inc(out_bytes)
        if fallback_lines:
            metric_fallbacks.inc(fallback_lines)
        return out

    # ------------------------------------------------------------------ #
    def _compress_reference(self, lines: Sequence[str]) -> Tuple[List[str], int, int]:
        """Whole-block reference fallback (non-Latin-1 dictionary)."""
        out: List[str] = []
        matches = 0
        escapes = 0
        for line in lines:
            record = self.codec.compress_record(line)
            out.append(record.compressed)
            matches += record.matches
            escapes += record.escapes
        metric_lines, metric_bytes, metric_fallbacks = self._counters["compress"]
        metric_lines.inc(len(out))
        metric_bytes.inc(sum(len(r) for r in out))
        metric_fallbacks.inc(len(out))
        return out, matches, escapes


__all__ = [
    "ALPHABET_SIZE",
    "ESCAPE_BYTE",
    "BlockKernel",
    "CodecAutomaton",
    "KernelUnsupportedError",
]
