"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's host shares its cores: the same pass can take 3.5 s or 7 s
depending on the neighbours, and CPU time inflates along with wall time.
The kernel does the same kind of work as figurate (ranks of small
``Fraction`` matrices, big-integer multiply-adds) on fixed data and never
changes, so its duration tracks the machine's speed and not the program's.
Of the candidates tried, this mix tracked all four workloads best: over
14 passes each, the quartile spread of pass time / kernel time was 3-6%,
against 15-21% for raw pass time. A ``Sampler`` runs it every
``INTERVAL_S`` of wall time during a pass, from a ``SIGALRM`` handler in
the same thread, so the samples cover the pass evenly.

Times reported as calibrated seconds are raw seconds, less the sampler's own
time, scaled by ``REF_S / mean kernel wall seconds``: what they would read on a
machine that runs the kernel in ``REF_S``.
"""
from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.005  # a fixed scale, not a measurement
INTERVAL_S = 0.2

_rng = random.Random(2)
_MATRICES = [
    [[Fraction(_rng.randint(-20, 20), _rng.randint(1, 30)) for _ in range(5)] for _ in range(4)]
    for _ in range(6)
]
_INTS = [_rng.getrandbits(256) for _ in range(4000)]


def _rank(matrix) -> int:
    """Rank by Gauss-Jordan elimination over ``Fraction``."""
    rows = [list(r) for r in matrix]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def kernel() -> int:
    """A few ms of exact rational elimination and big-integer arithmetic on fixed data."""
    total = sum(_rank(m) for m in _MATRICES)
    acc = 0
    for a, b in zip(_INTS, _INTS[1:]):
        acc += a * b - (a >> 3)
    return total + (acc & 1)


class Sampler:
    """Kernel samples as (start, wall seconds, CPU seconds), on demand or on a timer."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.samples.append((w0, time.perf_counter() - w0, time.process_time() - c0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self, start: float, end: float) -> tuple[float, float]:
        """Wall and CPU seconds the kernel took in samples begun within [start, end)."""
        inside = [s for s in self.samples if start <= s[0] < end]
        return sum(s[1] for s in inside), sum(s[2] for s in inside)

    def kernel_seconds(self) -> tuple[float, float]:
        """Mean wall and CPU seconds of one kernel call over the samples."""
        return (
            statistics.fmean(s[1] for s in self.samples),
            statistics.fmean(s[2] for s in self.samples),
        )
