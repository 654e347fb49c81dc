"""Timing at a steady host speed: a probe sampled while the program runs.

On a shared host the same pure-Python work runs up to a third faster or
slower from one second to the next, and in phases of a minute or more, so
two runs of the same code seldom agree within a tenth in plain seconds.
The slowdown falls on a small fixed computation and on the program alike,
closely enough that timing one against the other cancels most of it (see
``README.md``).

``SpeedProbe.measure`` times one segment of work.  While the segment runs,
a SIGALRM handler runs a fixed probe computation of about 4 ms every
``INTERVAL_S`` of the segment's own time, and a few probes run just before
and just after it.  The segment's time less the probe time, divided by the
mean probe time and multiplied by ``NOMINAL_PROBE_S``, is its time at
nominal host speed: seconds as they would read on a host running as fast
as the machine where the constant was measured (a 2-core Xeon virtual
machine at 2.1 GHz, Python 3.11.7).  Only the probe, which never calls the
program, sets the scale, so a faster program still reads faster.

Signals reach Python only in the main thread, between bytecodes; the
program under test is single-threaded.  The probe runs with the cyclic
garbage collector off, so the size of the program's heap does not change
the probe's time.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
EDGE_PROBES = 5            # probes just before and just after each segment
NOMINAL_PROBE_S = 0.004    # one probe at nominal host speed

_TERMS = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(40)]


def probe() -> int:
    """A fixed computation of rational sums, tuples and a dictionary."""
    table = {}
    total = Fraction(0)
    for i in range(700):
        total += _TERMS[i % 40] * _TERMS[(3 * i) % 40]
        table[(i % 17, total.denominator % 13)] = total
    return len(table)


class SpeedProbe:
    """Times segments of work and converts them to nominal host speed."""

    def __init__(self):
        self.samples: list[float] = []
        self._running = False

    def _sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe()
            spent = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(spent)
        return spent

    def _on_alarm(self, signum, frame) -> None:
        if not self._running:  # a signal that arrived as the segment ended
            return
        self._spent += self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def measure(self, fn, *args):
        """``(result, nominal_s, plain_s)`` of ``fn(*args)``.

        ``plain_s`` is the segment's wall time less the probes run inside
        it; ``nominal_s`` is that time at nominal host speed.
        """
        for _ in range(EDGE_PROBES):
            self._sample()
        first = len(self.samples) - EDGE_PROBES
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(EDGE_PROBES):
            self._sample()
        plain_s = end - start - self._spent
        window = self.samples[first:]
        speed = NOMINAL_PROBE_S * len(window) / sum(window)
        return result, plain_s * speed, plain_s

    def host_speed(self) -> float:
        """Nominal probe time over the mean probe time of every sample so far."""
        return NOMINAL_PROBE_S * len(self.samples) / sum(self.samples)
