"""Host-speed reference: a fixed piece of work timed beside the workload.

The benchmark runs on a few vCPUs of a shared host.  Each vCPU moves, on
its own and every few seconds, between a quiet state and one about 1.8x
slower (its physical core's other hardware thread is busy with another
tenant's work).  A run's wall-clock figures then depend on how much of
it fell into slow periods, which varies far more from run to run than
any change the benchmark is meant to catch.

So a worker pins itself (and the server it starts) to one vCPU and times
this reference between requests, on that vCPU, every ``INTERVAL_S``.  The
reference uses only numpy and the standard library, never the program,
so a change to the program cannot move it.  Its mix of small numpy
gathers and scatters and of plain Python bytecode is weighted so that
its slowdown in a slow period matches the plain kernel's.  Each request's
latency is then scaled by ``REF_MS / t``, where ``t`` is the reference
time measured around it: the benchmark's timings read in milliseconds of
a host running at the reference speed, ``REF_MS`` per reference call.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter
from typing import Optional

import numpy as np

#: One reference call on this benchmark's host in its quiet state
#: (2-vCPU Intel Xeon, Python 3.11, numpy 2.4).  Scaled timings read as
#: if every reference call had taken this long.
REF_MS = 1.10
#: Reference calls per burst; a burst's figure is their median.
CALLS = 5
#: Least seconds of traffic between two bursts.
INTERVAL_S = 0.25

_SIZE = 4096
_STEPS = 64
_FANIN = 48
_LOOP = 3000


class HostRef:
    """The reference work, with its inputs built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._start = rng.random(_SIZE)
        self._index = rng.integers(0, _SIZE, size=(_STEPS, _FANIN))
        self._out = self._start.copy()

    def _numpy(self) -> None:
        x = self._start
        for idx in self._index:
            g = x[idx]
            self._out[idx] = (g * 0.5 + 0.25) * (1.0 - g)
            x = self._out

    @staticmethod
    def _python() -> int:
        total = 0
        table = {}
        for i in range(_LOOP):
            total += i * i
            table[i & 63] = total
        return total

    def call(self) -> None:
        self._numpy()
        self._numpy()
        self._python()
        self._python()
        self._python()

    def burst(self) -> float:
        """Median ms of ``CALLS`` reference calls."""
        times = []
        for _ in range(CALLS):
            t0 = perf_counter()
            self.call()
            times.append((perf_counter() - t0) * 1e3)
        return statistics.median(times)


def pin_one_cpu() -> Optional[int]:
    """Pin this process (and the children it starts later) to the lowest
    vCPU it may run on, so the reference and the work share one vCPU.
    Returns that vCPU, or None where affinity is not supported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
