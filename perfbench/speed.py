"""Machine-speed reference sampled alongside the measured work.

The benchmark runs on shared virtual machines whose speed changes by up to
2x within seconds (a busy neighbour on the same core or cache). Wall-clock
op times follow those changes, so a run that lands in a slow phase reads
as a regression. ``SpeedSampler`` runs a small fixed pure-Python kernel
from a ``SIGALRM`` timer every ``period`` seconds, in the main thread, and
keeps the time of every run. The kernel allocates small dicts and tuples,
groups and sorts them, which is the same kind of work as the wrangler's, so
it slows down by about as much when the machine does.

``normalise(ms, start, end)`` rescales a measured time to the reference
speed: ``ms * REFERENCE_KERNEL_S / kernel_cost``, where ``kernel_cost`` is
the trimmed mean of the kernel times sampled in ``[start - pad, end + pad]``.
The kernel is not part of the program, so a change to the program moves the
normalised time exactly as it moves the raw one.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

#: Kernel cost (s) that defines the reference speed: the lower quartile of
#: the kernel's time on a 2-core Xeon VM, CPython 3.11. A normalised time is
#: what the work would have taken at that speed.
REFERENCE_KERNEL_S = 200e-6

_RNG = random.Random(7)
_KEYS = [f"key{_RNG.randrange(400)}" for _ in range(300)]


def kernel() -> int:
    """Fixed work: build 300 small row dicts, group them by key, sort the groups."""
    rows = [{"key": key, "n": i, "pair": (i, key)} for i, key in enumerate(_KEYS)]
    groups: dict[str, list] = {}
    for row in rows:
        groups.setdefault(row["key"], []).append(row["pair"])
    return len(sorted(groups.items()))


class SpeedSampler:
    """Times ``kernel`` every ``period`` seconds while started."""

    def __init__(self, period: float = 0.02, pad: float = 0.3, trim: float = 0.1):
        self.period = period
        #: Seconds added on each side of a window, so short ops see enough samples.
        self.pad = pad
        #: Share of samples cut from each end of a window (GC pauses, preemption).
        self.trim = trim
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            kernel()
            self.costs.append(time.perf_counter() - started)
            self.starts.append(started)
        finally:
            if collecting:
                gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def kernel_cost(self, start: float, end: float) -> float | None:
        """Trimmed mean kernel time (s) sampled in the padded window."""
        low = bisect.bisect_left(self.starts, start - self.pad)
        high = bisect.bisect_right(self.starts, end + self.pad)
        costs = sorted(self.costs[low:high])
        if not costs:
            return None
        cut = int(len(costs) * self.trim)
        return statistics.fmean(costs[cut:len(costs) - cut])

    def normalise(self, value: float, start: float, end: float) -> float:
        """``value`` (any time unit) measured in ``[start, end]``, at the reference speed."""
        cost = self.kernel_cost(start, end)
        if cost is None:
            raise RuntimeError("no speed samples around a measured window")
        return value * REFERENCE_KERNEL_S / cost
