"""The injectable file-I/O layer: faulty reads surface as typed errors.

A :class:`FaultyFile` is handed straight to :class:`ShardReader` (the store
accepts any seekable binary), so these tests pin the *store's* reaction to
disk-level faults: corruption → :class:`BlockCorruptionError` + quarantine,
truncation → typed error, never silent wrong records.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import BlockCorruptionError, ReproError
from repro.faults import FaultSchedule, ReadFault, ReadFaultPlan, open_faulty
from repro.store import ShardReader

from .conftest import FAULT_SEED


def _setup_read_calls(path) -> int:
    """How many ``read()`` calls opening a reader costs (footer parsing)."""
    faulty = open_faulty(path)
    with ShardReader(faulty) as reader:
        assert len(reader) > 0
        return faulty.read_calls


class TestTransparency:
    def test_no_plan_is_fully_transparent(self, pristine_shard, corpus):
        with ShardReader(open_faulty(pristine_shard)) as reader:
            assert list(reader.iter_all()) == corpus[:40]

    def test_counters_track_calls_and_faults(self, pristine_shard):
        faulty = open_faulty(pristine_shard)
        with ShardReader(faulty) as reader:
            reader.get(0)
        assert faulty.read_calls > 0
        assert faulty.faults_injected == 0

    def test_fileno_is_blocked(self, pristine_shard):
        # A read through the real descriptor would bypass the fault layer
        # and silently test nothing — the wrapper refuses to expose it.
        with pytest.raises(OSError, match="no file descriptor"):
            open_faulty(pristine_shard).fileno()


class TestInjectedFaults:
    def test_flipped_block_read_raises_and_quarantines(
        self, pristine_shard, corpus
    ):
        setup = _setup_read_calls(pristine_shard)
        # The first post-setup read call is record 0's block payload.
        plan = ReadFaultPlan([ReadFault(call=setup, kind="flip")])
        faulty = open_faulty(pristine_shard, plan)
        with ShardReader(faulty) as reader:
            with pytest.raises(BlockCorruptionError) as excinfo:
                reader.get(0)
            assert excinfo.value.block == 0
            assert faulty.faults_injected == 1
            # Degraded, not dead: every other block still serves, and the
            # bad block fails fast without another disk touch.
            assert reader.get(25) == corpus[25]
            calls_before = faulty.read_calls
            with pytest.raises(BlockCorruptionError):
                reader.get(1)  # same block (8 records per block)
            assert faulty.read_calls == calls_before
            stats = reader.quarantine_stats()
            assert stats["quarantined_blocks"] == 1
            assert stats["quarantine_hits"] == 1

    def test_truncated_read_raises_typed_error(self, pristine_shard):
        setup = _setup_read_calls(pristine_shard)
        plan = ReadFaultPlan([ReadFault(call=setup, kind="truncate")])
        with ShardReader(open_faulty(pristine_shard, plan)) as reader:
            with pytest.raises(BlockCorruptionError, match="short read"):
                reader.get(0)

    def test_short_read_raises_typed_error(self, pristine_shard):
        setup = _setup_read_calls(pristine_shard)
        plan = ReadFaultPlan([ReadFault(call=setup, kind="short", arg=1.0)])
        with ShardReader(open_faulty(pristine_shard, plan)) as reader:
            with pytest.raises(BlockCorruptionError, match="short read"):
                reader.get(0)

    def test_delay_slows_but_does_not_corrupt(self, pristine_shard, corpus):
        setup = _setup_read_calls(pristine_shard)
        plan = ReadFaultPlan([ReadFault(call=setup, kind="delay", arg=0.05)])
        with ShardReader(open_faulty(pristine_shard, plan)) as reader:
            began = time.monotonic()
            assert reader.get(0) == corpus[0]
            assert time.monotonic() - began >= 0.05

    def test_seeded_plan_replays_on_the_same_access_pattern(self, pristine_shard):
        setup = _setup_read_calls(pristine_shard)

        def run() -> list:
            plan = FaultSchedule(FAULT_SEED).read_plan(
                calls=setup + 5, flips=1, truncates=1
            )
            outcomes = []
            try:
                # A fault may equally land on a footer-parsing read, in
                # which case the open itself fails — typed, and replayable.
                with ShardReader(open_faulty(pristine_shard, plan)) as reader:
                    for index in (0, 10, 20, 30):
                        try:
                            outcomes.append(reader.get(index))
                        except BlockCorruptionError as exc:
                            outcomes.append(("corrupt", exc.block))
            except ReproError as exc:
                outcomes.append(("unopenable", str(exc)))
            return outcomes

        assert run() == run()
