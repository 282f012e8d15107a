"""Host speed sampling, to rescale times measured on a shared host.

Other tenants of a shared host slow this core by up to 40%, in phases of
seconds to minutes.  Medians of raw op times then moved by 15-30% from one
30 s run to the next, more than any bound worth having.  A fixed calibration
loop, timed again and again while the ops run, slows down with them: the
benchmark multiplies each time by REFERENCE_S / (median loop time over the
same stretch), which gives the time on a core running at reference speed.

The loop is timed before and after each op and, for an op run in this
process, through SIGALRM every INTERVAL_S during it, so that each op, of one
second or of fifteen, is rescaled by the speed it actually ran at.  The time
the handler takes is kept in ``busy_s``, for callers to take off the op it
interrupted.
Nothing is timed while a child process works: on a 2-core host its core
shares caches and execution units with this one, so the loop would measure
the child's load, not the host's.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_N = 20_000
# median calibration_s() on the reference host (2-core x86-64 VM, Python
# 3.11); only ratios to it matter
REFERENCE_S = 0.0062
INTERVAL_S = 0.5
SAMPLES_PER_CALL = 3


def calibration_s() -> float:
    """Time a fixed loop of tuple allocation, dict updates and integer
    arithmetic, the kind of work ksembed's inner loops do, in bounded memory
    (so that it moves no peak-memory figure)."""
    t = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(LOOP_N):
        pair = (i * 7919 % 1009, i & 255)
        table[i & 1023] = table.get(i & 1023, 0) + pair[0] * pair[1]
    return time.perf_counter() - t


class SpeedSampler:
    """``sample`` times the calibration loop SAMPLES_PER_CALL times; while
    entered with ``periodic`` set, SIGALRM also calls it every INTERVAL_S of
    wall time."""

    def __init__(self, periodic: bool):
        self.periodic = periodic
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        self.samples.extend(calibration_s() for _ in range(SAMPLES_PER_CALL))
        self.busy_s += time.perf_counter() - t

    def factor(self, first: int = 0) -> float:
        """Multiply a time measured while ``samples[first:]`` were taken by
        this to get the time at reference speed."""
        return REFERENCE_S / statistics.median(self.samples[first:])

    def __enter__(self) -> SpeedSampler:
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
