"""Host fingerprint and noise record stamped on every run.

Small shared hosts drift: CPU steal swings from 0 to ~18% and the same
server CPU per request has been seen to move by a third within minutes.
Each run therefore records what it ran on (cores, CPU model, Python,
commit or source hash, seed), the steal share of every timed window, and
the time of a fixed pure-Python calibration loop, so a later change can be
told apart from host drift.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def fingerprint(root: Path, seed: int, src_sha: str) -> Dict[str, object]:
    return {
        "cores": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "commit": _commit(root),
        "src_sha": src_sha,
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() or "unknown"


def source_hash(src: Path) -> str:
    """Identifies the program under test, with or without a commit."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop (best of three)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += (i * i) % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


class StealMeter:
    """CPU steal share per named window, read from ``/proc/stat``."""

    def __init__(self) -> None:
        self.totals: Dict[str, Tuple[int, int]] = {}

    @staticmethod
    def sample() -> Tuple[int, int]:
        """``(steal, total)`` jiffies over all CPUs."""
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
        # user nice system idle iowait irq softirq steal [guest guest_nice]:
        # guest time is already counted inside user and nice.
        return fields[7], sum(fields[:8])

    @staticmethod
    def percent_between(before: Tuple[int, int], after: Tuple[int, int]) -> float:
        steal, total = after[0] - before[0], after[1] - before[1]
        return 100.0 * steal / total if total else 0.0

    def add(self, name: str, before: Tuple[int, int], after: Tuple[int, int]) -> None:
        steal, total = self.totals.get(name, (0, 0))
        self.totals[name] = (steal + after[0] - before[0], total + after[1] - before[1])

    def percent(self) -> Dict[str, float]:
        return {name: self.percent_between((0, 0), sums) for name, sums in self.totals.items()}

    def overall(self) -> float:
        steal = sum(s for s, _ in self.totals.values())
        total = sum(t for _, t in self.totals.values())
        return self.percent_between((0, 0), (steal, total))


#: Spins at the lowest scheduling priority until its parent goes away.
_SPINNER = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


class IdleSpinners:
    """One ``SCHED_IDLE`` busy loop per CPU while the block runs.

    On a contended hypervisor every halt and wake of a virtual CPU costs
    milliseconds of steal.  A closed loop of ~0.3 ms requests halts a CPU
    on every round trip, and in sizing that steal (10-35%) slowed hot gets
    3-10x while CPU-bound work on the same host saw about 1%.  The spinners
    keep the CPUs from halting; they run only when nothing else is runnable
    and are preempted at once by any woken server or client thread.  Each
    exits by itself if the benchmark dies.
    """

    def __enter__(self) -> "IdleSpinners":
        self._procs = [
            subprocess.Popen([sys.executable, "-c", _SPINNER])
            for _ in range(os.cpu_count() or 1)
        ]
        return self

    def __exit__(self, *exc_info: object) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()


def stop_children(timeout: float = 10.0) -> None:
    """Stop and reap every process this one started that is still around.

    The program's process pools and fleet start multiprocessing's resource
    tracker, which is meant to outlive its parent and exit only when the
    parent's end of its pipe closes; without a parent to reap it, it stays
    behind as a zombie.  Every other child still running (pool workers or a
    server an error cut short) is asked to terminate and killed after
    *timeout* seconds; they hold the tracker's pipe too, so the tracker is
    stopped and waited for after them.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    _stop_pids([pid for pid in _child_pids() if pid != getattr(tracker, "_pid", None)], timeout)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    _stop_pids(_child_pids(), timeout)


def _stop_pids(children: List[int], timeout: float) -> None:
    for pid in children:
        _signal(pid, signal.SIGTERM)
    deadline = time.monotonic() + timeout
    while children and time.monotonic() < deadline:
        children = [pid for pid in children if not _reaped(pid)]
        if children:
            time.sleep(0.05)
    for pid in children:
        _signal(pid, signal.SIGKILL)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _child_pids() -> List[int]:
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:  # reaped elsewhere already
        return True


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of *pid*, all its threads included."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may hold spaces; fields resume after its ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def own_cpu_s(children: bool = False) -> float:
    times = os.times()
    total = times.user + times.system
    if children:
        total += times.children_user + times.children_system
    return total


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of *pid* in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
