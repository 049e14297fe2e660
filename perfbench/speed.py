"""A probe of the host's speed, timed next to every measured solve.

On a shared host the same work runs up to 40% slower or faster from one
few seconds to the next, in wall and in CPU time alike: other tenants
share the cores.  A median over one run does not remove that, because
the slow spells last seconds.  So every end-to-end time is scaled to a
reference speed: the measured time times ``REFERENCE_S`` over the mean of
the probe's times just before and just after it.  A probe is the median
of three short runs, so that a preemption inside one of them (seen to
make a single probe read several times its median) does not count.

The probe is fixed pure-Python work (a dict update loop and sorts of
small tuples, the interpreter operations the prover spends its time in)
and shares no code with the package, so a change to the program moves
the scaled time as much as the raw one.  ``README.md`` gives its measured
effect on the spread between runs.
"""

from __future__ import annotations

import gc
import time

# the probe's time at the reference speed: about its median on CPython
# 3.11 and the 2-core host where the benchmark was defined
REFERENCE_S = 0.7e-3
RUNS = 3


def _work() -> None:
    d: dict[int, int] = {}
    for i in range(2000):
        d[i % 1000] = d.get(i % 1000, 0) + i
    for _ in range(80):
        pairs = [(j * 7919 % 13, str(j)) for j in range(12)]
        pairs.sort()


def probe() -> float:
    """The median wall time of ``RUNS`` runs of the probe's work, with the
    cyclic collector held off so that none of the program's garbage is
    collected inside them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(RUNS):
            t0 = time.perf_counter()
            _work()
            times.append(time.perf_counter() - t0)
        return sorted(times)[RUNS // 2]
    finally:
        if enabled:
            gc.enable()


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at the reference speed, given the probe's times just
    before and just after it."""
    return elapsed * REFERENCE_S / ((before + after) / 2)
