"""A fixed pure-Python task that gauges how fast the host runs right now.

On a shared 2-vCPU virtual machine the speed of allocation-heavy Python drifts by
about a third over tens of seconds, whatever the benchmark does.  The
benchmark times this probe next to each timed region and scales the
region's seconds by ``PROBE_REF_S / probe seconds``: the result is the
time the region would have taken on a host where the probe takes
``PROBE_REF_S``.  The probe never calls ``surveil``, so no change to the
library can move it.
"""

from __future__ import annotations

import gc
from collections import deque
from time import perf_counter

# probe seconds on the 2 GHz virtual-machine vCPU where the baseline was taken
# (Python 3.11); only the scale of the reported times depends on it
PROBE_REF_S = 0.02

_N = 14
_NEIGHBOURS = {
    c: frozenset(
        x for x in (c - 1, c + 1, c - _N, c + _N)
        if 0 <= x < _N * _N and (x // _N == c // _N or x % _N == c % _N)
    )
    for c in range(_N * _N)
}


def _work() -> int:
    """Breadth-first searches over sets of grid cells, each split by a fixed
    rule: the hashing, set algebra and dict traffic of belief games."""
    total = 0
    for m in range(3, 6):
        start = frozenset({0})
        seen = {start: 0}
        queue = deque([start])
        while queue:
            belief = queue.popleft()
            succ = set()
            for c in belief:
                succ |= _NEIGHBOURS[c]
            for part in (frozenset(x for x in succ if x % m), frozenset(x for x in succ if not x % m)):
                if part and part not in seen:
                    seen[part] = len(seen)
                    queue.append(part)
        total += len(seen)
    return total


def probe() -> float:
    """Seconds the probe takes now.

    The cyclic garbage collector is off meanwhile: its passes scan the whole
    heap, so with it on the probe would time the workload's heap size
    rather than the host.  The probe makes no reference cycles.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
