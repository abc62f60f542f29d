"""Clocks, resource readings and the median/quartile summary.

Every timed value the harness reports is the median over a workload's
passes, carried with its quartiles and ``n`` so a reader can tell a real
shift from a noisy run.  CPU seconds are read beside wall seconds (a
sleep-bound pass has little CPU and a lot of wall); load average and
steal are captured so a noisy set can be explained afterwards.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Stopwatch:
    """Wall and CPU seconds of one ``with`` block."""

    wall_s: float = 0.0
    cpu_s: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._cpu0 = cpu_seconds()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = cpu_seconds() - self._cpu0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{value: median, q1, q3, n}``; one sample is its own quartiles."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("no samples to summarize")
    if len(data) == 1:
        q1 = q3 = data[0]
    else:
        q1, _, q3 = statistics.quantiles(data, n=4)
    return {"value": statistics.median(data), "q1": q1, "q3": q3,
            "n": len(data)}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    figure the benchmark contract is judged by."""
    data = [float(v) for v in values]
    if len(data) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(data, n=4)
    mid = statistics.median(data)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def loadavg_1m() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def proc_stat_jiffies() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` jiffies from ``/proc/stat``; None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    counts = [int(v) for v in fields[1:]]
    steal = counts[7] if len(counts) > 7 else 0
    return steal, sum(counts[:8])


def steal_frac(before: Optional[Tuple[int, int]],
               after: Optional[Tuple[int, int]]) -> float:
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def interleave(*arms: Sequence) -> List:
    """ABCABC order over equally long arms (never AAABBB), so drift on a
    shared box lands on every arm alike."""
    return [item for group in zip(*arms) for item in group]



def child_pids() -> List[int]:
    """Live or unreaped direct children of this process, off ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                ppid = int(fh.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue                      # gone between listdir and open
        if ppid == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The process executor's workers are daemons that multiprocessing only
    terminates at interpreter exit, and creating a shared-memory segment
    starts ``multiprocessing.resource_tracker`` — a helper that lives
    until its parent's pipe closes, i.e. *outlives* the parent unless it
    is stopped here.  Whatever is left after those two gets SIGTERM, then
    SIGKILL after ``grace_s``; every child is reaped before returning.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
    from multiprocessing import resource_tracker
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()                            # closes the pipe, waits for it
    for signum in (signal.SIGTERM, signal.SIGKILL):
        for pid in child_pids():
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while True:
            try:
                reaped, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return                    # no child left, live or zombie
            if reaped == 0:
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.01)
