"""Host speed: a fixed slice of pure-Python work, timed next to every op, to which times are scaled.

The benchmark runs on shared hosts whose speed drifts by a factor of 1.5 or
more within seconds, in CPU time as much as in wall time, while nothing in
the benchmark changes (see README.md, "Host speed"). A slice is the same
work at every seed and in every commit, and it calls nothing in arbor: a
breadth-first walk over a fixed random tree held in dicts and sets, plus a
short sum of Fractions, the kind of code arbor's layers run. Its time
follows the host's speed, so a time divided by the slice's time nearby and
multiplied by ``REFERENCE_S`` is the time the host would have taken at the
reference speed, one at which a slice takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0025  # a slice's time at the reference speed, about its median on a 2-vCPU guest
WINDOW = 5  # an op's factor comes from the median of the 2 * WINDOW + 1 slices around it
TREE_SIZE = 4000
EVICT_BYTES = 8 << 20  # more than a core's L2 cache (2 MiB on the 2-vCPU guest), less than its L3
HARMONIC = sum(Fraction(1, i) for i in range(1, 40))


class HostSpeed:
    def __init__(self):
        rng = random.Random(0)
        self.tree = {0: []}
        for v in range(1, TREE_SIZE):
            p = rng.randrange(v)
            self.tree[v] = [p]
            self.tree[p].append(v)
        self.evict = bytearray(EVICT_BYTES)

    def sample(self) -> float:
        """Seconds one slice takes now. A read of EVICT_BYTES first pushes the slice's data out of
        the core's own cache, as a long op does, so every slice starts from the same state whatever
        the op before it touched; the garbage collector is paused, so the op's garbage is not
        collected inside the slice."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.evict.count(1)
            start = time.perf_counter()
            self.walk()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def walk(self) -> None:
        seen, frontier = {0}, [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.tree[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        total = sum(Fraction(1, i) for i in range(1, 40))
        if len(seen) != TREE_SIZE or total != HARMONIC:
            raise RuntimeError("host speed slice computed a wrong result")


def factors(samples: list[float]) -> list[float]:
    """Per op, the factor to the reference speed from the slices timed around it."""
    return [REFERENCE_S / statistics.median(samples[max(0, i - WINDOW):i + WINDOW + 1]) for i in range(len(samples))]
