"""Host facts and `/proc` readers shared by every workload.

Nothing here imports the program under test: these readers look at the
machine and at other processes from outside.
"""

from __future__ import annotations

import bisect
import os
import platform
import statistics
import time
from array import array
from typing import Dict, Iterable, List, Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def host_info() -> Dict[str, object]:
    """``nproc``, the Python version and the CPU model of this machine."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "cpu_model": cpu_model,
    }


def steal_seconds() -> float:
    """Cumulative CPU seconds stolen by the hypervisor, all CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / _CLK_TCK if len(fields) > 8 else 0.0


def _probe_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(60_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    if len(table) != 1024:  # keeps the loop from being optimised away
        raise RuntimeError("host probe computed a wrong table")
    return time.perf_counter() - t0


def host_probe_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Taken before and after each run: if the two readings (or the readings
    of two sets of runs) differ, the host changed speed under the run.
    """
    return 1e3 * statistics.median(_probe_once() for _ in range(repeats))


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a whole process (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
        text = fh.read()
    # The command name may hold spaces; fields after it are fixed.
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def status_field(pid: int, key: str) -> Optional[str]:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    value = status_field(pid, "VmHWM")
    if value is None:
        raise RuntimeError(f"no VmHWM for pid {pid}")
    return int(value.split()[0]) / 1024.0


def alive(pid: int) -> bool:
    """True while ``pid`` runs; an exited process awaiting reaping is not."""
    state = status_field(pid, "State")
    return state is not None and not state.startswith(("Z", "X"))


#: Time between host-speed probes during a measured run.
WINDOW_S = 1.0

#: Probe time of the reference host: figures are scaled to this speed.
PROBE_REF_S = 0.015


class SpeedTrack:
    """Host-speed probes taken between the measured windows of a run.

    On a shared VM the speed of a vCPU changes by up to 3x and stays in
    one regime for seconds to tens of seconds, so two runs of the same
    code differ by more than any bound worth having.  The run therefore
    stops issuing work about once per ``WINDOW_S``, lets what is in
    flight finish, and times ``_probe_once`` on the same CPU while
    nothing else runs.  Each window's times are divided by the window's
    factor (its two probes' mean over ``PROBE_REF_S``) and its rates
    multiplied by it: the figures read as on a host whose probe takes
    ``PROBE_REF_S``.  The pauses are left out of every time.
    """

    def __init__(self) -> None:
        self.started: List[float] = []  # probe began
        self.resumed: List[float] = []  # probe ended, work resumes
        self.secs: List[float] = []

    def probe(self) -> None:
        self.started.append(time.perf_counter())
        self.secs.append((_probe_once() + _probe_once()) / 2)
        self.resumed.append(time.perf_counter())

    def factors(self) -> List[float]:
        return [(a + b) / 2 / PROBE_REF_S
                for a, b in zip(self.secs, self.secs[1:])]

    def window(self, t: float) -> int:
        """Index of the window holding ``t``, or -1 outside every window."""
        j = bisect.bisect_right(self.resumed, t) - 1
        if 0 <= j < len(self.started) - 1 and t <= self.started[j + 1]:
            return j
        return -1

    def rate(self, event_times: Iterable[float]) -> float:
        """Events per reference-host second over all windows."""
        events = sum(1 for t in event_times if self.window(t) >= 0)
        seconds = sum(
            (self.started[j + 1] - self.resumed[j]) / f
            for j, f in enumerate(self.factors()))
        return events / seconds

    def duration(self, times: List[float], values: List[float]) -> float:
        """Median of ``values`` (durations, keyed by ``times``), each
        first scaled to the reference host by its window's factor."""
        factors = self.factors()
        scaled = []
        for t, v in zip(times, values):
            j = self.window(t)
            if j >= 0:
                scaled.append(v / factors[j])
        return statistics.median(scaled) if scaled else 0.0

    def active(self, start: float, end: float) -> float:
        """Reference-host seconds of ``[start, end]``, pauses left out."""
        factors = self.factors()
        total = 0.0
        for j, f in enumerate(factors):
            lo = max(start, self.resumed[j])
            hi = min(end, self.started[j + 1])
            if hi > lo:
                total += (hi - lo) / f
        return total

    def mean_factor(self) -> float:
        factors = self.factors()
        return statistics.mean(factors) if factors else 1.0


def quantiles(values: List[float]) -> Dict[str, float]:
    """p50 and p99 of a sample plus its size, for the run record."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"p50": 0.0, "p99": 0.0, "n": 0}
    return {
        "p50": statistics.median(ordered),
        "p99": ordered[min(n - 1, int(0.99 * n))],
        "n": n,
    }


class Histogram:
    """Fixed-memory latency histogram with linear buckets.

    The offline workload times hundreds of thousands of steps; keeping
    them all would make the process's peak RSS grow with the run's speed.
    Quantiles interpolate within a bucket, so they are not quantised.
    """

    def __init__(self, width_s: float = 1e-7, buckets: int = 20_000) -> None:
        self.width = width_s
        self.counts = array("q", bytes(8 * buckets))
        self.over: List[float] = []
        self.n = 0

    def add_all(self, values: Iterable[float]) -> None:
        counts, width, limit = self.counts, self.width, len(self.counts)
        for v in values:
            i = int(v / width)
            if i < limit:
                counts[i] += 1
            else:
                self.over.append(v)
            self.n += 1

    def quantile(self, q: float) -> float:
        rank = q * self.n
        seen = 0
        for i, c in enumerate(self.counts):
            if c and seen + c >= rank:
                return (i + (rank - seen) / c) * self.width
            seen += c
        over = sorted(self.over)
        return over[min(len(over) - 1, max(0, int(rank - seen)))]

    def summary(self) -> Dict[str, float]:
        return {"p50": self.quantile(0.5), "p99": self.quantile(0.99),
                "n": self.n}
