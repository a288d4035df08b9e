"""Machine-speed calibration, so timings compare across a noisy shared host.

On a machine whose cores are shared with other tenants the same pass can
take a third longer from one minute to the next.  A fixed pure-Python
routine, run between cases every INTERVAL_S, slows down with it: on the
2-vCPU machine the bounds were set on, dividing a 20 s window's work time by
the routine's time in the same window cut the window-to-window variation
from 9% to 2.5%.  Reported times are therefore *calibrated seconds*:

    calibrated = measured * C_REF_S / mean(routine time in the same process)

i.e. seconds at the speed where the routine takes C_REF_S.  The raw
measurement and the factor are kept beside every calibrated value.  The
routine is the benchmark's own code, so a change to the library never moves
it.
"""

from __future__ import annotations

import time
from fractions import Fraction

C_REF_S = 0.015
INTERVAL_S = 0.2


def routine():
    """Tuples, dicts, sorting, big-int bit operations and Fractions: the
    operations the library spends its time in."""
    seen = {}
    total = Fraction(0)
    for i in range(3000):
        t = tuple((i * k) % 97 for k in range(8))
        seen[t] = seen.get(t, 0) + 1
        s = sorted(t)
        total += Fraction(s[3] + 1, s[-1] + 2)
        x = 0
        for v in s:
            x ^= v << (v % 13)
        seen[x] = seen.get(x, 0) + x.bit_count()
    return len(seen), total


def factor(samples):
    """Calibrated seconds per measured second, from routine times."""
    return C_REF_S * len(samples) / sum(samples)


class Calibrator:
    """Times the routine at most every INTERVAL_S; tracks the time it took."""

    def __init__(self):
        self.clock = time.perf_counter
        self.samples = []
        self.spent = 0.0
        self._last = None

    def sample(self):
        t0 = self.clock()
        routine()
        t1 = self.clock()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def maybe(self):
        if self._last is None or self.clock() - self._last >= INTERVAL_S:
            self.sample()
