"""The injectable file-I/O fault layer: :class:`FaultyFile`.

``.zss`` readers accept any open binary, seekable file object, so the fault
layer is just a file wrapper — no store code knows it exists::

    plan = FaultSchedule(seed).read_plan(calls=50, flips=1)
    with ShardReader(open_faulty(shard_path, plan)) as reader:
        ...   # the flipped read surfaces as BlockCorruptionError

Faults trigger on read-call *ordinals* (0-based count of ``read`` calls on
the wrapper), which the seeded :class:`~repro.faults.schedule.ReadFaultPlan`
chose up front — rerunning with the same seed and the same access pattern
replays the same faults on the same calls.
"""

from __future__ import annotations

import io
import time
from pathlib import Path
from typing import Optional, Union

from ..telemetry import metrics as _metrics
from .schedule import ReadFaultPlan

PathLike = Union[str, Path]


def _injected_counter():
    """``faults_injected_total{layer,kind}`` on the current global registry."""
    return _metrics.counter(
        "faults_injected_total",
        "Faults injected by the chaos layer, by layer and kind",
        labels=("layer", "kind"),
    )


class FaultyFile(io.RawIOBase):
    """A read-only binary file wrapper that injects scheduled faults.

    Implements the slice of the file protocol the store readers use —
    ``read``, ``seek``, ``tell``, ``close``, ``seekable``/``readable`` —
    plus counters (``read_calls``, ``faults_injected``) the tests assert.

    Fault kinds (see :class:`~repro.faults.schedule.ReadFault`):

    * ``flip`` — XOR the first byte of the returned data with 0xFF.
    * ``short`` — return at most 1 byte of what was asked (callers that
      don't loop see a short read).
    * ``truncate`` — return ``b""`` (premature EOF).
    * ``delay`` — sleep, then read normally (models a slow disk).
    """

    def __init__(self, source: PathLike, plan: Optional[ReadFaultPlan] = None):
        super().__init__()
        self.path = Path(source)
        self._inner = open(self.path, "rb")
        self.plan = plan if plan is not None else ReadFaultPlan()
        self.read_calls = 0
        self.faults_injected = 0

    # -- file protocol -------------------------------------------------- #
    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        return self._inner.tell()

    def read(self, size: int = -1) -> bytes:
        call = self.read_calls
        self.read_calls += 1
        fault = self.plan.fault_for(call)
        if fault is None:
            return self._inner.read(size)
        self.faults_injected += 1
        _injected_counter().labels("file", fault.kind).inc()
        if fault.kind == "delay":
            time.sleep(fault.arg)
            return self._inner.read(size)
        if fault.kind == "truncate":
            # Premature EOF: advance nothing, hand back nothing.
            return b""
        if fault.kind == "short":
            limit = max(1, int(fault.arg))
            if size is None or size < 0 or size > limit:
                size = limit
            return self._inner.read(size)
        # "flip": real bytes with the first one damaged.
        data = bytearray(self._inner.read(size))
        if data:
            data[0] ^= 0xFF
        return bytes(data)

    def readinto(self, buffer) -> int:  # pragma: no cover - protocol glue
        data = self.read(len(buffer))
        buffer[: len(data)] = data
        return len(data)

    def close(self) -> None:
        if not self.closed:
            self._inner.close()
        super().close()

    # The wrapper deliberately hides the descriptor: a read through the real
    # fd (``os.pread``) would bypass the fault layer and silently test nothing.
    def fileno(self) -> int:
        raise OSError("FaultyFile exposes no file descriptor (a read through it skips the faults)")


def open_faulty(source: PathLike, plan: Optional[ReadFaultPlan] = None) -> FaultyFile:
    """Open *source* read-only behind the fault-injection layer."""
    return FaultyFile(source, plan)
