"""Host-speed probe for the compute-bound timings.

The benchmark runs on a shared host whose speed drifts with its
neighbours' load: over ten minutes the same warm pass took 67 ms to
119 ms in 28-second windows.  No repetition inside one run can cancel
a drift that slow, so the compute-bound timings are normalised against
a fixed reference computation timed between the timed units of the
same run.

The probe is one HiGHS branch-and-bound solve (through scipy, the same
solver core the compiler calls) of a small seeded knapsack, about
0.07 s.  It uses no ``repro`` code, so a change to the compiler cannot
move it.  A run probes after each of its timed units and reports a
normalised timing as::

    median(raw) * REFERENCE_S / median(probes of the run)

which is the unit's time on a host where the probe takes
``REFERENCE_S``: wall seconds on the reference host, whatever the
current host's speed.  Over ten minutes of interleaved samples this cut
the spread of 28-second medians (interquartile range over median) from
0.21 to 0.09 for warm passes and from 0.11 to 0.09 for cold compiles.
A longer knapsack (0.2 s) tracked the sequential cold compiles better
but over-corrected the pooled ones (ten runs: 0.08 raw, 0.15
normalised), so one short probe serves every timing.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from pb_stats import median

#: Probe time that defines the reference host: about the median on a
#: 2-core shared VM (Xeon at 2.1 GHz) when it ran quiet.
REFERENCE_S = 0.070
#: Optimal value of the probe's knapsack; a solve must reach it.
EXPECTED_OBJECTIVE = -1086.0


def _knapsack() -> Callable[[], float]:
    """A solve function for the fixed 40-item, 3-constraint knapsack."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    rng = np.random.default_rng(7)
    items = 40
    value = -rng.integers(10, 100, items).astype(float)
    weight = rng.integers(5, 60, (3, items)).astype(float)
    capacity = weight.sum(axis=1) * 0.3
    constraint = LinearConstraint(weight, -np.inf, capacity)

    def solve() -> float:
        result = milp(
            value,
            constraints=constraint,
            integrality=np.ones(items),
            bounds=Bounds(0, 1),
        )
        if not result.success:
            raise RuntimeError(f"host probe failed: {result.message}")
        return float(result.fun)

    return solve


class HostProbe:
    """Times the reference solve between a run's timed units.

    One probe varies by a fifth from the next even on a steady host, so
    a run probes after each of its timed units and normalises by the
    median of all its probes.
    """

    def __init__(self, solve: Optional[Callable[[], float]] = None, clock=time.perf_counter):
        self._solve = solve or _knapsack()
        self._clock = clock
        self.probes: List[float] = []
        self._check(self._solve())  # loads HiGHS; not a sample

    def _check(self, objective: float) -> None:
        if abs(objective - EXPECTED_OBJECTIVE) > 1e-6:
            raise RuntimeError(
                f"host probe reached {objective}, expected {EXPECTED_OBJECTIVE}"
            )

    def probe(self) -> None:
        """Time one reference solve and record its wall time."""
        started = self._clock()
        objective = self._solve()
        self.probes.append(self._clock() - started)
        self._check(objective)

    def factor(self) -> float:
        """``REFERENCE_S`` over the median probe of the run so far."""
        return REFERENCE_S / median(self.probes)

    def summary(self) -> str:
        """The probe median, for a run's notes."""
        return (
            f"host probe median {median(self.probes) * 1e3:.1f} ms "
            f"(reference {REFERENCE_S * 1e3:.0f} ms, {len(self.probes)} probes)"
        )
