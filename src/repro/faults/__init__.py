"""Deterministic fault injection for the storage and serving stack.

``repro.faults`` exists to *prove* the robustness story, not to be part of
it: every chaos/acceptance suite drives the real readers, servers and
clients through this harness, with every fault drawn from a seeded
schedule so a failing run replays byte-for-byte from its seed.

Three layers:

* :mod:`repro.faults.schedule` — the seeded planners.
  :class:`FaultSchedule` turns ``(seed, shard files)`` into a concrete,
  reproducible corruption plan (bit flips at chosen offsets, truncations)
  that :func:`apply_corruptions` writes onto *copies* of the shards;
  :class:`ReadFaultPlan` scripts per-read-call faults for the I/O layer;
  :class:`ConnectionFaultPlan` scripts per-connection faults for the
  proxy.
* :mod:`repro.faults.io` — :class:`FaultyFile`, an injectable file object
  wrapping ``open``/``read``/``seek`` that flips bits, short-reads,
  truncates and delays per its plan.  A
  :class:`~repro.store.reader.ShardReader` accepts an open binary handle,
  so the faulty layer slots straight into it with no store changes.  A
  :class:`FaultyFile` has no file descriptor on purpose: the reader then
  reads it with ``seek`` + ``read``, never positionally around the
  wrapper, so every read meets its plan.
* :mod:`repro.faults.proxy` — :class:`FaultyProxy`, a TCP proxy in front
  of a real corpus server that injects connection resets, stalls and
  mid-stream drops, for exercising the client retry / failover paths.

Typical chaos-test shape::

    schedule = FaultSchedule(seed=1234)
    plan = schedule.plan_corruptions(shard_copies, flips=3, truncations=1)
    applied = apply_corruptions(plan)           # copies now corrupt
    report = fsck_path(damaged_library)         # every fault detected
    repair_path(damaged_library, replica)       # bytes restored

    with FaultyProxy(server.url, schedule.connection_plan(resets=2)) as proxy:
        client = FailoverCorpusClient([proxy.url, clean.url])
        client.slice(0, len(client))            # rides out the faults
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".io": ["FaultyFile", "open_faulty"],
    ".proxy": ["FaultyProxy"],
    ".schedule": [
        "BitFlip", "ConnectionFault", "ConnectionFaultPlan", "FaultSchedule",
        "ReadFault", "ReadFaultPlan", "Truncation", "apply_corruptions",
    ],
})
