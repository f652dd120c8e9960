"""Host-speed sampling, so that a child's times do not follow host drift.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to 25% within seconds and by more over minutes; a fixed
pure-Python loop's one-second medians ranged from 56 to 94 ms within
one minute on a 2-vCPU Xeon VM.  Wall times alone then spread more
between runs of the same code than any useful bound.

So each child samples the host's speed on its own thread, interleaved
with the program: ten times a second a ``SIGALRM`` handler runs a fixed
reference loop (about 2 ms) and records how long it took.  A phase's
time is its wall time less the samples' own time (the program's time),
scaled to the reference speed by ``REFERENCE_S`` over the harmonic mean
of that phase's samples.  The harmonic mean is the loop's duration at
the phase's mean speed, since speed is work over duration and the
samples are evenly spaced in time; over 16 children of the same
``paper-sweep`` work it cut the coefficient of variation of the
measured phase from 0.10 (wall) to 0.04, where the median sample gave
0.05.  The reference loop allocates no tracked objects
and shares no code with the program, so a change to the program moves
the scaled time as it moves the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

#: the reference loop's duration at the nominal host speed: about its
#: median on a 2-vCPU Xeon VM with Python 3.11.
REFERENCE_S = 0.002
INTERVAL_S = 0.1


def _reference() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


@dataclass(frozen=True)
class Phase:
    wall_s: float  # wall time less the samples' own time
    reference_s: float  # the reference loop's duration at the phase's mean speed
    samples: int

    @property
    def scaled_s(self) -> float:
        """The phase's time at the nominal host speed."""
        return self.wall_s * REFERENCE_S / self.reference_s


class HostSpeed:
    """Samples the reference loop every ``INTERVAL_S`` of wall time."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.durations: list[int] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        start = time.monotonic_ns()
        _reference()
        self.durations.append(time.monotonic_ns() - start)
        self.starts.append(start)

    def phase(self, start_ns: int, end_ns: int) -> Phase:
        """The phase between two ``time.monotonic_ns`` readings.

        A phase too short to hold a sample is scaled by all samples, or
        not at all when there are none.
        """
        inside = [
            duration
            for start, duration in zip(self.starts, self.durations)
            if start_ns <= start < end_ns
        ]
        basis = inside or self.durations
        reference_s = statistics.harmonic_mean(basis) / 1e9 if basis else REFERENCE_S
        return Phase(
            wall_s=(end_ns - start_ns - sum(inside)) / 1e9,
            reference_s=reference_s,
            samples=len(inside),
        )
