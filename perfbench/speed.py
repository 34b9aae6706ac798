"""Machine-speed normalisation for timings taken on a shared, noisy host.

On a small VM the same pass over a job list can take 20-40% longer for
minutes at a time, because other tenants slow the CPU down; CPU time slows
with it.  A pass-level median cannot remove drift that lasts longer than a
run.  So before a job, every INTERVAL_S while it runs (on a timer signal),
and after it, the benchmark times a fixed pure-Python kernel of about
0.2 ms: bit loops, tuple sorts and set inserts, the kind of work the
program does.  The job's time is then
rescaled to the speed at which the kernel takes REFERENCE_S:

    reference seconds = measured seconds * REFERENCE_S * mean(1 / kernel time)

The mean of the inverse weights each sampled instant by the work a fixed
speed would do in it.  The kernel belongs to the benchmark, so no change to
the program can move it.  The time spent in the kernel is subtracted from
the job's measured time.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

INTERVAL_S = 0.005
EDGE_SAMPLES = 5  # kernel runs before and after each job, which short jobs rely on
REFERENCE_S = 2.0e-4  # the kernel's median time on the 2-vCPU VM the baseline was recorded on

_RNG = random.Random(7)
_MASKS = [_RNG.getrandbits(24) for _ in range(40)]


def kernel() -> float:
    """Seconds one run of the fixed kernel takes now."""
    t0 = time.perf_counter()
    seen = set()
    for m in _MASKS:
        bits = []
        while m:
            low = m & -m
            bits.append(low.bit_length() - 1)
            m ^= low
        seen.add(tuple(sorted((b * 7) % 19 for b in bits)))
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Multiplier taking measured seconds to reference seconds."""
    return REFERENCE_S * statistics.fmean(1.0 / s for s in samples)


class Speedometer:
    """Samples the kernel on SIGALRM while a job runs (main thread only)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = [kernel() for _ in range(EDGE_SAMPLES)]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """(seconds spent sampling since start, speed factor over the job)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples += [kernel() for _ in range(EDGE_SAMPLES)]
        return self.spent, factor(self.samples)
