"""Host-speed gauge: a fixed piece of work timed between the program's calls.

The benchmark runs on shared virtual machines whose speed drifts.  On the
2-CPU x86-64 guest it was written on, the same call took 11 ms in one
hour and 26-28 ms in another, and runs a few minutes apart swung between
the two, with CPU time swinging as much as wall time (the slowdown is the
host's, not the guest scheduler's).  A median over one run cannot take
that out.  So every timed call is bracketed by samples of
:meth:`Gauge.sample`, a fixed interpreter loop plus sums over a 4 MiB
array, and every time metric is reported at the reference speed: a call
measured while the gauge took ``c`` seconds is scaled by
``REFERENCE_S / c``.

The mix was chosen by timing candidate pieces of work between the calls
of each workload for 100 s and scaling the calls by each: over 10 s
blocks, the median call then varied by 1.7-3.0% (coefficient of
variation) with the loop-plus-sums gauge against 5-14% unscaled.  The
loop alone did as well on the median (3-4%) but worse on p90 (4-8%); a
16 MiB sum, a uint8-to-int64 widening or in-cache numpy alone each did
worse on some workload (up to 10%).

The gauge is the benchmark's own code, so no change to the program moves
it; the unscaled figures and the factors stay in the provenance record.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: the gauge's time at the reference speed: reported times are what the
#: calls would take on a host where one gauge sample takes 1 ms
REFERENCE_S = 1e-3
#: a call is scaled by the median of the gauge samples this many places
#: before and after it (the samples taken around its neighbours)
WINDOW = 4


class Gauge:
    #: interpreter-loop iterations and 4 MiB sums per sample: the two take
    #: about the same time, 1 ms together on the guest above when it is slow
    LOOP = 8_000
    SUMS = 2

    def __init__(self) -> None:
        self._array = np.ones(1 << 19)
        self.samples: List[float] = []
        #: CPU seconds this process spent in the samples
        self.cpu_s = 0.0

    def clear(self) -> None:
        self.samples.clear()
        self.cpu_s = 0.0

    def _work(self) -> float:
        total = 0
        for i in range(self.LOOP):
            total += i & 0xFF
        for _ in range(self.SUMS):
            total += self._array.sum()
        return total

    def sample(self) -> float:
        """Time one fixed piece of work; keep and return its seconds.

        The work runs twice and only the second pass is timed: the first
        brings the loop's code and the array back into the caches, so what
        the program did just before does not move the sample.
        """
        cpu = time.process_time()
        self._work()
        begin = time.perf_counter()
        self._work()
        took = time.perf_counter() - begin
        self.cpu_s += time.process_time() - cpu
        self.samples.append(took)
        return took

    def take(self, n: int) -> None:
        for _ in range(n):
            self.sample()


def factor(samples: Sequence[float]) -> float:
    """``REFERENCE_S`` over the median gauge sample."""
    return REFERENCE_S / statistics.median(samples)


def scale_calls(calls: Sequence[float], gauge: Sequence[float],
                window: int = WINDOW) -> List[float]:
    """Scale call ``i`` by the gauge samples ``i - window .. i + window``.

    ``gauge[i]`` is the sample taken just before call ``i``; the list may
    hold one more sample, taken after the last call.
    """
    if len(gauge) < len(calls):
        raise ValueError(f"{len(calls)} calls but {len(gauge)} gauge samples")
    return [
        took * factor(gauge[max(0, i - window):i + window + 1])
        for i, took in enumerate(calls)
    ]
