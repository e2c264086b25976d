"""A fixed reference kernel that measures how fast the machine runs right now.

The host's speed drifts by tens of percent over seconds to minutes (see the
README).  The worker runs ``block()`` before and after every timed instance
and divides the instance's time by the mean of the two block times, which
cancels the speed of the phase the instance ran in.  Multiplying the ratio by
``REFERENCE_S`` gives seconds at a fixed reference speed.

The kernel is plain Python over small integer sets, dicts and tuples, the
operations the stww code is made of.  It shares no code with stww, so a
change to stww never changes it, and it allocates little, so it does not
depend on the state of the garbage collector.  Its result is fixed and is
checked on every call.
"""

from __future__ import annotations

from time import perf_counter

# Seconds one block takes on the reference machine: a 2-vCPU VM on a shared
# host (Intel Xeon, Python 3.11.7) in a quiet phase.  Normalised seconds are
# wall seconds on that machine at that speed.
REFERENCE_S = 0.0028
CALLS_PER_BLOCK = 8

_VERTICES = 96
_NEIGHBOURS = [
    frozenset((v * 7 + j * 13) % _VERTICES for j in range(1, 9) if (v * 7 + j * 13) % _VERTICES != v)
    for v in range(_VERTICES)
]
_EXPECTED = None


def kernel() -> int:
    """Score every vertex pair by its symmetric difference, greedy-style."""
    best = {}
    total = 0
    for u in range(_VERTICES):
        nu = _NEIGHBOURS[u]
        for v in range(u + 1, _VERTICES, 2):
            red = len(nu ^ _NEIGHBOURS[v])
            key = (u % 8, red)
            best[key] = best.get(key, 0) + 1
            total += red * (u - v) % 11
    return total + sum(best.values()) + len(best)


def block() -> float:
    """Seconds per kernel call, averaged over one block of calls."""
    global _EXPECTED
    start = perf_counter()
    values = {kernel() for _ in range(CALLS_PER_BLOCK)}
    seconds = (perf_counter() - start) / CALLS_PER_BLOCK
    if _EXPECTED is None:
        _EXPECTED = values.pop()
    if values - {_EXPECTED}:
        raise RuntimeError(f"reference kernel returned {values}, expected {_EXPECTED}")
    return seconds
