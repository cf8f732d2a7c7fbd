"""Host-speed correction of the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed changes far
more than the regressions the benchmark must catch: on a 2-vCPU host,
interpreted code flips between speeds up to 1.9x apart within seconds, and
ten runs of the same code spread by 15-40% (quartile distance over median).
So while the program runs, a timer interrupts it every ``PERIOD_S`` seconds
and times one fixed reference computation, a *block*; each measured
interval of the program's work (its wall time less the blocks inside it) is
reported as

    seconds * reference_s / median(blocks inside it and the one either side),

that is, as seconds on a host where one block takes ``reference_s``.
Blocks timed before and after a job, instead of inside it, missed the speed
changes within a 2-s job and left twice the spread.  The host's speed is not
the same for all kinds of work (vectorised numpy slows much less than the
interpreter), so each workload names the block whose work is like its jobs'
(``Workload.host_block``).  The blocks live in the benchmark, so a change to
octolift never changes them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.1      # between blocks; a block takes about 5% of that


def _interpreter_block() -> int:
    """Exact Fraction arithmetic, tuple and dict traffic."""
    acc, table = Fraction(0), {}
    for i in range(1, 1000):
        q = Fraction(i % 37 + 1, i % 41 + 2)
        acc = acc * q + q if i % 16 else Fraction(acc.numerator % 997, 7)
        table[(i % 53, i % 47)] = (acc.numerator ^ acc.denominator) & 0xffff
    return len(table)


_COEFFS = np.exp(1j * np.linspace(0.0, 9.0, 3 * 4_000)).reshape(3, -1)
_POLY = np.ones((4_000, 33), dtype=complex)


def _vectorised_block() -> float:
    """One step of the Poincare sum's inner loop: complex multiply-adds
    into a freshly zeroed 4,000 x 33 array (2 MB, beyond the L2 cache)."""
    c0, c1, c2 = _COEFFS
    new = np.zeros_like(_POLY)
    base = _POLY[:, :31]
    new[:, 0:31] += base * c0[:, None]
    new[:, 1:32] += base * c1[:, None]
    new[:, 2:33] += base * c2[:, None]
    return float(new[0, 0].real)


# name -> (block, its median time on the host the benchmark was defined on:
# 2 vCPU of a shared x86-64 host, CPython 3.11, numpy 2.4, in a fast phase)
BLOCKS = {
    "interpreter": (_interpreter_block, 0.005),
    "vectorised": (_vectorised_block, 0.005),
}


class HostClock:
    """Samples the host's speed while the program runs and corrects the
    program's measured intervals by it.

    Use it as a context manager around the timed work: inside, SIGALRM
    fires every PERIOD_S seconds of wall time and its handler times one
    block.  Calls made through ``run`` are the measured intervals.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.block, self.reference_s = BLOCKS[kind]
        self.starts = []        # perf_counter at the start of each block
        self.blocks = []        # seconds of each block
        self.intervals = []     # (start, end) of each measured interval

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        self.block()
        self.starts.append(start)
        self.blocks.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()      # every interval has a block after it

    def run(self, fn, *args):
        """fn(*args), recorded as one measured interval."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.intervals.append((start, time.perf_counter()))

    def seconds(self, i: int):
        """Interval i as (seconds of the program's work, the same as
        seconds on the reference host)."""
        start, end = self.intervals[i]
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        work = end - start - sum(self.blocks[lo:hi])
        around = self.blocks[max(lo - 1, 0):hi + 1]
        return work, work * self.reference_s / statistics.median(around)
