"""Machine-speed reference jobs for the end-to-end throughput.

On the shared 2-core machine this benchmark was built on, one and the same
simulation ran at 6-12 M ticks/s within a few minutes, with CPU time equal
to wall time and no steal: the processor itself runs slower or faster
over tens of seconds, and a 20-second run cannot average that away.  So
each operation is bracketed by fixed reference jobs that never touch
edgesim, and its wall time is scaled by nominal / measured reference
time.  ticks_per_s therefore reads as throughput at the nominal machine
speed, and a change to edgesim moves it exactly as it moves wall time.

The slowdowns hit interpreted Python harder than numpy kernels, so a
workload names the jobs that resemble where its own time goes.  In a
trial with jobs of this kind (twice as long), the spread between blocks
of ten desk_core operations fell from 16% of the median (wall time) to 4%
(scaled by both jobs); between blocks of ten recurrence operations it
fell from 3.4% to 1.7% with the numpy job alone, and rose to 10% when
the Python job was added.
"""

from __future__ import annotations

import time

import numpy as np

# Median job times on the reference machine (2-core Intel Xeon at 2.1 GHz,
# Python 3.11, numpy 2.4), in seconds.
NOMINAL_S = {"python": 0.0764, "numpy": 0.0213}


class _Cloud:
    """Running signed sums, like an order cloud: attribute updates and
    small-integer arithmetic in method calls."""

    def __init__(self) -> None:
        self.w = 0
        self.q = 0
        self.queue: list[int] = []

    def add(self, sign: int, price: int) -> None:
        self.w += sign * price
        self.q += sign
        if len(self.queue) < 3 and sign * (self.w - price * self.q) > 25 * abs(self.q):
            self.queue.append(price)
        elif self.queue:
            self.queue.pop()


def python_job() -> float:
    """Seconds for a fixed interpreted-Python job."""
    signs = [1 if b else -1 for b in np.random.default_rng(5).random(8192) < 0.5]
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(150_000):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + i
    cloud = _Cloud()
    for i in range(75_000):
        cloud.add(signs[i & 8191], 9000 + i % 2000)
    return time.perf_counter() - t0


def numpy_job() -> float:
    """Seconds for a fixed job of numpy kernels on 8192-element blocks."""
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    total = 0
    for _ in range(150):
        u = rng.random(8192)
        walk = np.cumsum(np.where(u < 0.5, 1, -1))
        total += int(walk.max()) + int(np.flatnonzero(u < 0.02).size)
    return time.perf_counter() - t0


JOBS = {"python": python_job, "numpy": numpy_job}


def measure(jobs: tuple[str, ...]) -> dict[str, float]:
    return {name: JOBS[name]() for name in jobs}


def slowdown(before: dict[str, float], after: dict[str, float]) -> float:
    """Measured over nominal reference time around one operation."""
    measured = sum(before[j] + after[j] for j in before) / 2
    return measured / sum(NOMINAL_S[j] for j in before)
