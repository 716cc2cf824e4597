"""Times scaled to a fixed machine speed, measured with a canary.

On a VM that shares its host's cores with other tenants (2 vCPUs of a Xeon
Sapphire Rapids under KVM), the speed a single thread gets swings by up to
1.8x, both from one second to the next and over minutes, with nothing else
running in the VM.  Wall-clock medians of the same code then spread by 30-40%
between runs.  A canary, a fixed exact row reduction over
``fractions.Fraction`` (the kind of work the program does), slows down by
nearly the same factor: over 4 minutes of ``a2_trio`` ops, the op time divided
by the canary time around it spread by 1-2% where the raw op times spread
by 30%.

So a ``Speed`` runs the canary on an interval timer (SIGALRM) while ops run,
and ``seconds`` turns a span of wall time into the seconds it would have
taken at the speed where the canary takes ``REF_CANARY_S``:

    scaled = (wall - time spent in the canary) * REF_CANARY_S / mean canary

with the mean over the canary samples inside the span and the nearest one on
either side of it.  The canary's time is taken out of every span it falls in.
The canary code is the benchmark's own and never changes with the program.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

# About the canary's time on an uncontended vCPU of the machine the baseline
# was measured on (Xeon Sapphire Rapids, KVM, Python 3.11), so that scaled
# times read close to uncontended wall time there.
REF_CANARY_S = 0.001
# One sample every PERIOD_S costs about 1-2% of the run.
PERIOD_S = 0.1

_rng = random.Random(20240601)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9)]
           for _ in range(6)]


def _row_reduce(rows):
    rows = [r[:] for r in rows]
    pivot = 0
    for col in range(len(rows[0])):
        p = next((i for i in range(pivot, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[pivot], rows[p] = rows[p], rows[pivot]
        inv = 1 / rows[pivot][col]
        rows[pivot] = [x * inv for x in rows[pivot]]
        for i, row in enumerate(rows):
            if i != pivot and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[pivot])]
        pivot += 1
    return rows


class Speed:
    """Canary samples ``(time, canary seconds)`` and the seconds spent on
    them, taken on a timer between ``start`` and ``stop`` or by ``sample``."""

    def __init__(self):
        self.times: list[float] = []
        self.canary: list[float] = []
        self.spent = 0.0     # seconds inside sample(), timer or not
        self._old = None

    def sample(self, *_signal) -> None:
        enabled = gc.isenabled()
        gc.disable()   # a collection of the program's heap is not canary time
        t0 = time.perf_counter()
        _row_reduce(_MATRIX)
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.times.append((t0 + t1) / 2)
        self.canary.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def now(self) -> tuple[float, float]:
        """A mark: wall time and the canary seconds spent so far."""
        return time.perf_counter(), self.spent

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def seconds(self, begin: tuple[float, float], end: tuple[float, float]) -> float:
        """Scaled program seconds between two marks of ``now``; call once a
        sample later than ``end`` exists."""
        (t0, spent0), (t1, spent1) = begin, end
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = bisect.bisect_right(self.times, t1) + 1
        wall = (t1 - t0) - (spent1 - spent0)
        return wall * REF_CANARY_S / statistics.fmean(self.canary[lo:hi])
