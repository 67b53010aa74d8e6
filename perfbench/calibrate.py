"""A fixed reference kernel that measures how fast the core runs now.

On a shared virtual machine the speed of a core swings by up to a half
for seconds to minutes at a time with load from other tenants, and
process CPU time swings with it (the slowdown is not steal time).  No
figure taken from one run of the program can tell such a slowdown from
a slower program.  The benchmark therefore runs this kernel between
short timed segments (a set-up, a chunk of a pass) and scales each
segment's times to a core that runs the kernel in :data:`REFERENCE_S`
seconds.  The core's speed changes within a second, so the segments are
kept to about a tenth of one.

The kernel is pure Python and does what the program does most: dict
and set lookups, breadth-first search over an adjacency dict, small
tuples, sorting and heap operations.  It never touches ``repro``, so a
change to the program cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from collections import deque
from typing import Dict, List, Tuple

#: Seconds the reference core takes per kernel call.  Times are reported
#: as if every segment had run on that core.  On the 2-vCPU virtual
#: machine the benchmark was defined on (Python 3.11) one call took from
#: 0.008 s to 0.014 s as its cores changed speed.
REFERENCE_S = 0.0125
#: Largest ratio of the kernel times around a segment that still counts
#: as one speed.
CHANGED = 1.1

_VERTICES = 400
_rng = random.Random(20260416)
_GRAPH: Dict[int, List[int]] = {
    v: sorted(_rng.sample(range(_VERTICES), 4)) for v in range(_VERTICES)}
_SOURCES = list(range(0, _VERTICES, 40))


def kernel() -> int:
    """One unit of reference work; returns a checksum."""
    total = 0
    used = set()
    heap: List[tuple] = []
    for source in _SOURCES:
        parent = {source: source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in _GRAPH[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        for v in parent:
            arc = (parent[v], v)
            if arc in used:
                total += 1
            else:
                used.add(arc)
            heapq.heappush(heap, (len(used) % 97, v))
        edges = sorted(used, key=lambda a: (a[1], a[0]))
        total += edges[len(edges) // 2][0]
        while len(heap) > 64:
            total += heapq.heappop(heap)[1]
    return total


def measure() -> float:
    """Seconds one kernel call takes now.

    The collector is off during the call: the kernel's objects hold no
    cycles, so none outlive it, and a collection of the program's heap
    would otherwise land in the kernel's time at random.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Speed:
    """The core's speed, measured between timed segments.

    :meth:`segment` runs the kernel right after a segment ends.  The
    segment's factor is :data:`REFERENCE_S` over the mean of the kernel
    times on either side of it: multiplying its times by the factor
    gives the times of the reference core.  A segment during which the
    core changed speed (the two kernel times differ by more than
    :data:`CHANGED`) cannot be scaled reliably and is not ``held``.
    """

    def __init__(self) -> None:
        self.last = measure()
        self.kernel_s: List[float] = [self.last]

    def now(self) -> float:
        """The core's speed relative to the reference core, as of the
        last kernel run."""
        return REFERENCE_S / self.last

    def segment(self) -> Tuple[float, bool]:
        """``(factor, held)`` of the segment that just ended."""
        before, self.last = self.last, measure()
        self.kernel_s.append(self.last)
        held = max(before, self.last) <= CHANGED * min(before, self.last)
        return REFERENCE_S * 2 / (before + self.last), held

    def timed(self, step) -> Tuple[object, float, bool]:
        """Run ``step()`` as one segment: its result, factor and held."""
        result = step()
        return (result,) + self.segment()
