"""Time in reference seconds, so the figures hold still on a shared machine.

The speed of a shared machine drifts with its neighbours' load. On the
2-CPU machine this benchmark was written on, a fixed pure-Python loop took
between 0.74x and 1.17x of its median time from one 20-second window to the
next, and the program's instances slowed and sped up with it: the `batch`
throughput of successive 20-second windows spread 35% (interquartile range
over median) in wall-clock seconds and 1.3% once each instance was scaled by
the loop timed just before it.

So every timed call is preceded by ``REFERENCE_LOOP`` (at most one loop per
``MAX_AGE_S``), and its wall time is multiplied by ``REFERENCE_S`` over the
loop's time. A reference second is a wall-clock second on a machine that
runs the loop in ``REFERENCE_S``, which is the loop's median time on the
machine above; a change to the program does not change the loop, so it moves
the scaled figures exactly as it moves wall-clock time at a fixed speed.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.006
MAX_AGE_S = 0.05


def reference_loop():
    # Builds and walks a dict of tuples, the program's dominant operations.
    table = {}
    for i in range(20_000):
        table[i] = (i, i + 1)
    total = 0
    for _, pair in table.items():
        total += pair[0]
    return total


class ReferenceClock:
    """Scale factors from reference seconds to this machine's current speed."""

    def __init__(self):
        self.samples: list[float] = []
        self._taken = float("-inf")

    def scale(self):
        """Factor turning the wall time of a call made now into reference seconds."""
        if perf_counter() - self._taken >= MAX_AGE_S:
            t0 = perf_counter()
            reference_loop()
            self._taken = perf_counter()
            self.samples.append(self._taken - t0)
        return REFERENCE_S / self.samples[-1]
