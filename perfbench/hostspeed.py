"""Host-speed calibration for the timed run.

On a shared host the same job can take up to 1.7 times as long from one
few-second stretch to the next: the process keeps its CPU, but the core
runs slower while other tenants load it (CPU time tracks wall time, so it
is not descheduling). A fixed pure-Python kernel, timed right before and
right after each job, tracks those swings. Each job's wall time is scaled
by ``REFERENCE_S / kernel time`` to the time it takes when the kernel runs
in ``REFERENCE_S``, which makes runs taken at different times comparable.

The kernel uses nothing from expindep, so a change to the program moves
the scaled times as much as the raw ones. It is a breadth-first search
over a fixed small graph: the same kind of list-and-integer work that
dominates expindep, and of the kernels tried it tracked the program's
swings best (per-pass spread of identical job lists fell from 0.12 to
0.04 on goodset-sweep and from 0.13 to 0.05 on cli-batch).
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

# the kernel's time on a 2-vCPU Xeon VM in its usual (not fast) state;
# scaled times are wall times on a host that runs the kernel this fast
REFERENCE_S = 0.002

_N = 600
_SOURCES = range(0, _N, 60)


def _graph() -> list[list[int]]:
    rng = random.Random(7)
    adj: list[list[int]] = [[] for _ in range(_N)]
    for v in range(1, _N):
        u = rng.randrange(max(0, v - 5), v)
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(_N // 8):
        a, b = rng.randrange(_N), rng.randrange(_N)
        if a != b and len(adj[a]) < 3 and len(adj[b]) < 3:
            adj[a].append(b)
            adj[b].append(a)
    return adj


_ADJ = _graph()


def _kernel() -> int:
    total = 0
    for src in _SOURCES:
        dist = [-1] * _N
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in _ADJ[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(dist)
    return total


_EXPECTED = _kernel()


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = perf_counter()
    total = _kernel()
    dt = perf_counter() - t0
    if total != _EXPECTED:
        raise RuntimeError("calibration kernel gave a different result")
    return dt


class ScaledClock:
    """Scales measured intervals to the reference host speed. Call
    ``scale(dt)`` after each timed interval: the interval is scaled by the
    mean of the kernel times taken just before and just after it."""

    def __init__(self, warm: int = 5):
        for _ in range(warm):
            kernel_seconds()
        self.last = kernel_seconds()
        self.kernel_s: list[float] = [self.last]

    def scale(self, dt: float) -> float:
        after = kernel_seconds()
        self.kernel_s.append(after)
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return dt * factor
