"""Host speed: fixed reference loops timed between the workload's calls.

The sizing host shares its cores with other machines. Its speed flips between
a fast and a slow state, up to 1.9x apart, many times a second at some hours
and in phases of tens of seconds at others, and how much of the time it spends
slow drifts over minutes. So a call's raw time says as much about the host's
state as about tfperf. The reference loops run in the same process, between
the calls and never inside one. Over a pass they sample the host's state as
often as the calls meet it, so a pass's time divided by the loop's mean
slowdown over that pass (its mean time over its REFERENCE_S) is the pass's
time on the host at full speed.

The loops do not touch tfperf, so no change to tfperf can move them. There
are two, because the slow state slows interpreter work more than work on
large arrays: `interp` runs dicts, tuples and integer arithmetic in the
interpreter, like most of tfperf, and `array` runs numpy over 120k elements,
like mapspace's sampling.
"""
from __future__ import annotations

import gc
import statistics
import time

import numpy as np

_ARRAY = np.arange(120_000, dtype=np.int64)


def _interp() -> int:
    acc, seen = 0, {}
    for i in range(9000):
        key = (i % 97, i % 13)
        seen[key] = seen.get(key, 0) + i
        acc += (i * 7) % 5
    return acc + len(seen)


def _array() -> int:
    a = (_ARRAY * 7919) % 1021
    ok = (a < 700) & (a % 3 != 0)
    return int(a[ok].sum())


LOOPS = {"interp": _interp, "array": _array}
# each loop's best time on the sizing host (2-vCPU Xeon VM at 2.1 GHz, Python 3.11)
REFERENCE_S = {"interp": 2.0e-3, "array": 1.25e-3}
# Set-up (imports, writing inputs) slows down in the slow state about as much
# as the array loop does (1.25x, where the interp loop slows 1.8x).
SETUP_LOOP = "array"
MAX_BURSTS = 25  # bursts one sample() may run to catch up after a long call
# About 1% of bursts take 3-12x the reference: the process lost the CPU for a
# while. That is how the host shares time, not how fast it runs, and one such
# burst would move a pass's mean slowdown by itself, so a burst counts as at
# most this much slower. The calls' own durations keep such stalls, at the
# rate they meet them.
MAX_SLOWDOWN = 3.0


class HostSpeed:
    """Times of the reference loops, sampled in bursts between calls.

    sample() runs one burst for every `every_s` seconds since the last one,
    so long calls are covered as densely as short ones.
    """

    def __init__(self, every_s: float = 0.2):
        self.every_s = every_s
        self.series: list[tuple] = []  # (time, {loop: its time in the burst})
        self._last = -float("inf")

    def _burst(self) -> dict:
        row = {}
        for name, loop in LOOPS.items():
            loop()  # after a long call the loop's code and data are out of cache
            t0 = time.perf_counter()
            loop()
            row[name] = time.perf_counter() - t0
        return row

    def sample(self, force: bool = False) -> None:
        """Run the bursts that are due, or one burst if `force`."""
        now = time.perf_counter()
        due = int(min(MAX_BURSTS, (now - self._last) / self.every_s))
        if force:
            due = max(due, 1)
        if not due:
            return
        was_enabled = gc.isenabled()
        gc.disable()  # the loops' own allocations must not trigger a collection of the heap
        try:
            for _ in range(due):
                self.series.append((time.perf_counter(), self._burst()))
        finally:
            if was_enabled:
                gc.enable()
        self._last = time.perf_counter()

    def slowdown(self, loop: str, start: float = -float("inf"), end: float = float("inf")) -> float:
        """The loop's mean time over the bursts in [start, end], over its REFERENCE_S.

        Each burst counts as at most MAX_SLOWDOWN times the reference.
        """
        cap = MAX_SLOWDOWN * REFERENCE_S[loop]
        times = [min(row[loop], cap) for t, row in self.series if start <= t <= end]
        return statistics.fmean(times) / REFERENCE_S[loop]
