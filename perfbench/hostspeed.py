"""The host's speed while an interval is timed, to correct that interval's
time for a shared host whose speed drifts.

On a virtual machine that shares its cores, the same op can take 1.5 to 2
times as long from one minute to the next, and process CPU time drifts with
wall time, so neither clock alone resolves a 25 % change between two sets
of runs.  ``HostSpeed`` runs a fixed pure-Python reference loop every
``PERIOD_S`` seconds of the interval, from a SIGALRM handler in the timed
thread, so the reference shares the interval's moments of slowness.  The
corrected time is the interval's wall time, less the time spent in the
reference loop, scaled by ``REF_S`` over the reference loop's median time
during the interval: the seconds the interval would have taken on a host
where the loop takes ``REF_S``.  The loop touches no data beyond a few
integers, so the work being timed cannot change its speed through the
caches; it follows the host's clock and the contention for its core.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02
LOOP = 1000
# Nominal time of the reference loop; close to its median on a 2-vCPU
# x86-64 virtual machine under CPython 3.11, so that corrected times there
# read close to wall times.
REF_S = 1e-4


def _reference() -> None:
    s = 0
    for i in range(LOOP):
        s += i * i


class HostSpeed:
    """Context manager that samples the reference loop during its body.

    One sample is also taken on entry and one on exit, outside the timed
    interval, so an interval too short for the timer still has samples.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds of reference loops inside the body
        self._old = None

    def _sample(self) -> float:
        t0 = perf_counter()
        _reference()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, _signum, _frame) -> None:
        self.spent += self._sample()

    def __enter__(self) -> HostSpeed:
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def net(self, wall: float) -> float:
        """``wall`` less the reference loops run inside it."""
        return wall - self.spent

    def corrected(self, wall: float) -> float:
        """``net(wall)`` at the nominal host speed."""
        return self.net(wall) * REF_S / statistics.median(self.samples)
