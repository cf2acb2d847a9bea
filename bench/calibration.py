"""A fixed pure-Python kernel that reads the machine's current speed.

On a shared 2-core machine the same interpreter work takes up to twice as
long from one minute to the next, and process CPU time moves with wall
time, so the noise is the machine's speed, not scheduling.  The benchmark
therefore runs this kernel between the timed calls and reports reference
seconds: the measured wall time multiplied by REFERENCE_S over the median
kernel time of the same round.  A change to mapperbound moves reference
seconds as it moves wall seconds; a slow minute on the machine slows the
kernel too and cancels out.  Raw wall times are kept in the result files
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

# median kernel time on the 2-core x86-64 machine (CPython 3.11) that the
# bounds in BENCHMARK.json were set on; it fixes the unit, not the ratio
REFERENCE_S = 0.026
# at most one kernel run per quarter second: about a tenth of the run
EVERY_S = 0.25


def kernel() -> int:
    """Tuple keys, dict and set updates and frozenset unions, as in the
    grid and cosheaf layers."""
    seen: dict[tuple[int, int], int] = {}
    cells: set[tuple[int, int]] = set()
    acc = frozenset()
    for i in range(20_000):
        key = (i % 211, i % 17)
        seen[key] = seen.get(key, 0) + 1
        cells.add(key)
        if i % 400 == 0:
            acc = acc | frozenset(cells)
    return len(seen) + len(acc)


def sample() -> tuple[float, float]:
    """(when, how long) for one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return t0, time.perf_counter() - t0


class Clock:
    """Kernel samples taken between timed calls during one stretch of work."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def tick(self, force: bool = False) -> None:
        """Sample the kernel when EVERY_S has passed since the last sample."""
        if force or not self.samples or \
                time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.samples.append(sample())

    def factor(self) -> float:
        """REFERENCE_S over the median kernel time of the stretch; one kernel
        run is too noisy to scale a single call by."""
        return REFERENCE_S / statistics.median(took for _, took in self.samples)
