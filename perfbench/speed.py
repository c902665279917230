"""Host speed index: timings in reference-speed seconds.

The benchmark shares a few cores of a host whose speed changes in phases
of tens of seconds: on a 2-core share, a fixed pure-Python decision took
0.20 s in one phase and 0.35 s in the next, back and forth, while nothing
else of the benchmark ran.  A run cannot be long enough to average such
phases out, so every time the benchmark reports is scaled to a reference
speed: the raw time times ``REF_S / k``, where ``k`` is the mean time of a
fixed kernel probed just before, during and just after the timed
interval.  The raw times stay in the run record.

The kernel is exact rational Gauss-Jordan elimination of a fixed integer
matrix, with stdlib ``Fraction`` entries in dict rows: the same kind of
work as the solver, but none of its code, so a change to crystalforge
never changes the kernel.  The garbage collector is off while it runs, so
the size of the program's heap does not change it either.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.005  # the kernel's time at the reference speed, in seconds
REPEATS = 3  # kernel runs per probe; the probe reports their median
PERIOD_S = 0.5  # probe interval inside a timed operation
_N = 10


def _matrix() -> list[dict[int, Fraction]]:
    rng = random.Random(20221106)
    return [{j: Fraction(rng.randint(-9, 9)) for j in range(_N + 1)} for _ in range(_N)]


_MATRIX = _matrix()


def kernel() -> int:
    """Reduce the fixed matrix to reduced row echelon form; return its rank."""
    rows = [dict(r) for r in _MATRIX]
    rank = 0
    for col in range(_N):
        pivot = next((r for r in range(rank, _N) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = {j: v / lead for j, v in rows[rank].items()}
        for r in range(_N):
            f = rows[r][col]
            if r != rank and f:
                rows[r] = {j: v - f * rows[rank][j] for j, v in rows[r].items()}
        rank += 1
    return rank


class Meter:
    """Probes the host's speed and scales raw times by it.

    Between ``arm`` and ``disarm`` an interval timer probes every
    ``period_s`` as well, from a signal handler in the benchmark process, so
    an operation longer than a phase is scaled by the speed it ran at.  The
    time spent in those probes is not part of the operation's time.
    """

    def __init__(self, period_s: float | None = PERIOD_S):
        self.period_s = period_s  # None: no probes inside an operation
        self.probes: list[tuple[float, float]] = []  # (perf_counter, kernel s)
        self.inside: list[float] = []
        self.paused = 0.0

    def probe(self) -> float:
        """Time the kernel now; return its median time over REPEATS runs."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        k = statistics.median(times)
        self.probes.append((time.perf_counter(), k))
        return k

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.inside.append(self.probe())
        self.paused += time.perf_counter() - t0

    def arm(self) -> None:
        """Start probing every period_s; the first probe is period_s away."""
        self.inside, self.paused = [], 0.0
        if self.period_s:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def disarm(self) -> tuple[list[float], float]:
        """Stop probing; return the probes made since ``arm`` and their time."""
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.inside, self.paused

    @staticmethod
    def scale(raw_s: float, ks: list[float]) -> float:
        """``raw_s`` in reference-speed seconds, given the probes during it."""
        return raw_s * REF_S / statistics.fmean(ks)
