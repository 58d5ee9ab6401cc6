"""Timing that is steady on a host whose speed swings.

On a shared 2-vCPU host the same pure-Python work runs up to 1.7-2x slower
for seconds at a time (another tenant on the sibling hyperthread): CPU time
equals wall time and there is no steal time to subtract, so neither wall nor
CPU time is steady across runs.  ``Clock`` therefore times a fixed reference
computation (the probe) every 20 ms from a SIGALRM handler, in the same
thread and on the same core as the measured code, and converts each stretch
of measured time between two probes into reference seconds:

    reference seconds = measured seconds * REFERENCE_PROBE_S / probe seconds

so a stretch run at half speed, where the probe also takes twice as long,
counts as half its wall time.  The probe's own time is excluded.  The probe
uses only the standard library (frozensets, dicts, Fractions: the operations
pnk spends its time in) and no pnk code, so a change to pnk cannot change
the yardstick.  ``REFERENCE_PROBE_S`` is about the probe's duration on the
reference host at full speed, so reference seconds there come close to the
wall seconds of an undisturbed run; on another host they differ by a
constant factor.  The probe follows the host's speed only roughly, so single
operations keep a few percent of noise; sums over many stretches are steady.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
# The probe at full speed: Intel Xeon at 2.0 GHz, 2 vCPUs, CPython 3.11.7.
REFERENCE_PROBE_S = 180e-6

_SETS = [frozenset(range(i, i + 24)) for i in range(0, 48, 3)]


def probe_work() -> Fraction:
    acc = Fraction(0)
    dist: dict = {}
    for i, s in enumerate(_SETS):
        t = s | _SETS[-1 - i]
        dist[t] = dist.get(t, Fraction(0)) + Fraction(1, i + 2)
        acc += dist[t] * Fraction(3, i + 5)
    return acc


class Clock:
    """Probes the host's speed while active; ``seconds(a, b)`` converts the
    interval between two ``now()`` readings into reference seconds."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._saved = None

    now = staticmethod(time.perf_counter)

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "Clock":
        self._saved = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the measured work between readings a and b.
        Each stretch is scaled by the probe that ends it; the stretch after
        the last probe by the next probe, or by the last one if none came."""
        ends, durs = self.ends, self.durations
        i = bisect.bisect_right(ends, a)
        total, t = 0.0, a
        while i < len(ends) and ends[i] - durs[i] < b:
            total += max(0.0, ends[i] - durs[i] - t) * REFERENCE_PROBE_S / durs[i]
            t = max(t, ends[i])
            i += 1
        if t < b:
            d = durs[min(i, len(durs) - 1)] if durs else REFERENCE_PROBE_S
            total += (b - t) * REFERENCE_PROBE_S / d
        return total
