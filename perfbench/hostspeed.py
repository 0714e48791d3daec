"""Host-speed probe: scale measured wall time to a nominal host speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within a minute as neighbours come and go, so one run's wall time says as
much about the host as about the program.  A fixed pure-Python kernel, the
probe, is timed between slices of the measured work; each stretch of work
is scaled by the probe's nominal time over its measured time at both ends
of the stretch (``HostClock``).  Work done in pool workers is scaled by
probes the workers take after each run (``perfbench/workloads.py``).  The
probe is benchmark code, so a change to the program
moves the scaled time exactly as it moves the wall time.

The probe mixes what the simulator spends its time on: a binary heap of
tuples, attribute-free list objects read at random over a working set
larger than the core's private caches, and dictionary stores.
"""

from __future__ import annotations

import heapq
import random
from time import thread_time
from typing import List, Optional

#: The probe's CPU time on one unloaded 2.1 GHz Xeon core (the reference host).
NOMINAL_PROBE_S = 0.020

#: Wall seconds of measured work between two probes.
PROBE_EVERY_S = 0.5

_WORKING_SET = 1 << 16
_STEPS = 12_000
_state: Optional[tuple] = None


def _probe_state() -> tuple:
    global _state
    if _state is None:
        rng = random.Random(20070501)
        objs = [[i, float(i)] for i in range(_WORKING_SET)]
        order = [rng.randrange(_WORKING_SET) for _ in range(_STEPS)]
        _state = (objs, order)
    return _state


def probe_s() -> float:
    """CPU seconds this thread takes for one pass of the fixed kernel."""
    objs, order = _probe_state()
    heap: List[tuple] = []
    sink = {}
    t0 = thread_time()
    for k, i in enumerate(order):
        o = objs[i]
        o[1] += 1.0
        heapq.heappush(heap, (o[1] * 0.5 + k, k, o))
        if len(heap) > 512:
            _key, j, p = heapq.heappop(heap)
            sink[j & 4095] = p
    return thread_time() - t0


class HostClock:
    """Wall time of measured work, and the same time at the nominal host speed.

    Work is added in slices; once ``every_s`` of it has built up, a probe
    closes the stretch and scales it by the mean of the probes at its ends.
    """

    def __init__(self, every_s: float = PROBE_EVERY_S) -> None:
        self.every_s = every_s
        self.probes = [probe_s()]
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._pending = 0.0

    def add(self, seconds: float) -> None:
        self.wall_s += seconds
        self._pending += seconds
        if self._pending >= self.every_s:
            self.close()

    def close(self) -> None:
        """Probe now and scale the stretch since the previous probe."""
        if self._pending:
            before = self.probes[-1]
            after = probe_s()
            self.probes.append(after)
            self.scaled_s += self._pending * 2.0 * NOMINAL_PROBE_S / (before + after)
            self._pending = 0.0

