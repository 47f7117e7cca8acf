"""Host-speed correction for the pass timings.

On a shared host the speed of a vCPU swings by up to a factor of two within
minutes, with no steal time and CPU time equal to wall time, so raw seconds
of the same code spread by a quarter or more between runs. The probe times a
fixed slice of pure-Python work, independent of the package, from a SIGALRM
handler every ``INTERVAL_S`` while a pass runs. Its mean slice time tracks
how fast the host ran during that pass; a pass's seconds are scaled by
``REFERENCE_SLICE_S`` over that mean, which reports them at one reference
host speed. The probe's own time is taken out first.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
# the mean slice time on the 2-core Xeon host where the benchmark was defined
REFERENCE_SLICE_S = 400e-6


class _Cell:
    def __init__(self, x):
        self.x = x

    def plus(self, y):
        return self.x + y


def work_slice() -> int:
    """Fixed interpreter work: tuples, frozensets, a dict, objects, calls and
    list arithmetic modulo a prime, the mix the sweeps run."""
    seen = {}
    for i in range(200):
        key = (i % 97, i % 89)
        seen[key] = frozenset(key)
    acc = 0
    for i in range(200):
        acc += _Cell(i).plus(i)
    for i in range(60):
        coeffs = [(i * j + 3) % 7 for j in range(12)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        acc += sum(coeffs) % 5
    return acc + len(seen)


class Probe:
    """Slice timings taken while the pass runs, from a signal handler."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the probe itself took

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        work_slice()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample_back_to_back(self, seconds: float) -> None:
        """Slice timings without a pass, for the set-up launches."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            t0 = time.perf_counter()
            work_slice()
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Reference speed over measured speed; 1.0 without samples."""
        if not self.samples:
            return 1.0
        return REFERENCE_SLICE_S * len(self.samples) / sum(self.samples)
