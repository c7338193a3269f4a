"""Wall time rescaled to a reference machine speed.

Small shared VMs switch between speed regimes that last seconds and differ by
up to 2x; on a 2-vCPU Xeon VM that moved the same-seed vj_warm throughput by
26% between runs, and the rescaled figure by about 3%.  So a fixed reference
kernel of about 15 ms runs after every timed step, and a step's wall time is
multiplied by ``K_REF_S`` over the median time of the kernel runs around it:
the result is the step's time at the speed where the kernel takes
``K_REF_S``.  The kernel mixes interpreter work, cache-resident int64 matrix
products and an int8 to int64 copy, like the program; it calls nothing in
phigamma, so a change to the program cannot move it.
"""
import bisect
import statistics
import time
from contextlib import contextmanager

import numpy as np

K_REF_S = 0.015  # about the kernel's time on that VM
WINDOW_S = 2.0  # kernel runs this close to a step set its speed factor


class Timing:
    """Start and raw wall seconds of one timed step."""

    __slots__ = ("start", "raw")

    def __init__(self):
        self.start = time.perf_counter()
        self.raw = 0.0


class RefClock:
    def __init__(self):
        rs = np.random.RandomState(0)
        self._mat = rs.randint(0, 5, (120, 120)).astype(np.int64)
        self._prod = np.empty_like(self._mat)
        self._bytes = rs.randint(0, 5, (600, 600)).astype(np.int8)
        self._wide = np.empty(self._bytes.shape, dtype=np.int64)
        self._table = {i: i for i in range(1000)}
        self._ends = []  # end time of each kernel run, ascending
        self._secs = []  # its duration
        self.kernel()

    def kernel(self) -> float:
        """Run the reference kernel once and record its time.  It allocates
        nothing, so the program's heap cannot change its cost."""
        t = time.perf_counter()
        table, acc = self._table, 0
        for i in range(8000):
            acc += table[i % 1000] * 3 % 7
        for _ in range(6):
            np.matmul(self._mat, self._mat, out=self._prod)
            np.remainder(self._prod, 5, out=self._prod)
        for _ in range(8):
            self._wide[...] = self._bytes
            self._wide.sum()
        end = time.perf_counter()
        self._ends.append(end)
        self._secs.append(end - t)
        return end - t

    @contextmanager
    def timing(self):
        """Time the body, then run the kernel once."""
        tm = Timing()
        try:
            yield tm
        finally:
            tm.raw = time.perf_counter() - tm.start
            self.kernel()

    def scaled(self, tm) -> float:
        """The step's seconds at reference speed: raw time times K_REF_S over the
        median of the kernel runs within WINDOW_S of the step."""
        lo = bisect.bisect_left(self._ends, tm.start - WINDOW_S)
        hi = bisect.bisect_right(self._ends, tm.start + tm.raw + WINDOW_S + max(self._secs))
        return tm.raw * K_REF_S / statistics.median(self._secs[lo:hi])
