"""Host speed sampling, so that unit times can be read at a fixed speed.

The benchmark host is a share of a bigger machine, and its speed
drifts by 15-20% over tens of seconds to minutes: wall time and CPU
time of the same deterministic call drift together.  ``SpeedProbe`` samples that
drift while a unit of work runs.  A real-time interval timer interrupts
the unit every ``interval_s`` seconds, and the signal handler times one
call of ``kernel``, a fixed piece of work that uses no coopsat code.
The unit's time at reference speed is then

    (unit wall time - time spent in the handler) * REFERENCE_S / median kernel time

``kernel`` mimics the instruction mix of the program's hot paths:
numpy calls on 16-element complex vectors inside a Python loop that
builds dataclasses, small complex solves, one elementwise pass over a
256 x 100 array, and dict updates keyed by tuples.  It never changes,
so a change to the program cannot move it; its share of each kind of
work was chosen so that its time tracks the program's through the
host's slow and fast spells.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Kernel time that defines speed 1.0.  On a 2 vCPU shared VM (Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread) the kernel takes
# 6-9 ms.  It scales every normalized time by the same constant.
REFERENCE_S = 0.0100

_RNG = np.random.default_rng(20230109)
_MATS = [_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4)) + 4.0 * np.eye(4)
         for _ in range(8)]
_VECS = [_RNG.standard_normal(16) + 1j * _RNG.standard_normal(16) for _ in range(16)]
_TABLE = {i: _VECS[(7 * i) % 16] for i in range(64)}
_PHASES = _RNG.uniform(-math.pi, math.pi, (256, 100))
_WEIGHTS = _RNG.standard_normal(100)


@dataclass(frozen=True)
class _Row:
    key: int
    value: float


def kernel() -> float:
    """A fixed amount of work; returns a checksum so nothing is skipped."""
    rows = []
    for i in range(300):
        v = _TABLE.get(i % 64)
        p = 0.5 * np.abs(v * np.vdot(_VECS[i % 16], v)) ** 2
        x = float(np.sum(p)) - float(p[i % 16])
        rows.append(_Row(i, math.log2(1.0 + x)))
    acc = sum(r.value for r in rows)
    for i in range(100):
        m = _MATS[i % 8]
        acc += float(np.abs(np.linalg.solve(m, m.conj().T @ _VECS[i % 16][:4])).sum())
    acc += float(np.abs(np.exp(1j * _PHASES) @ _WEIGHTS).sum())
    counts: dict = {}
    for i in range(4000):
        key = (i % 50, i % 7)
        counts[key] = counts.get(key, 0.0) + 0.5 * i
    acc += sorted(counts.items())[-1][1]
    return acc


def speed_now(repeats: int = 5) -> float:
    """Host speed from ``repeats`` timed kernel calls after a warm-up."""
    kernel()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.median(times)


class SpeedProbe:
    """Interval timer that times ``kernel`` while a unit of work runs.

    Use as a context manager around the unit; it restores the previous
    signal handler and timer on exit.  ``samples`` holds the kernel
    times, at least one, and ``spent_s`` the time the handler took away
    from the unit.
    """

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._busy = False
        self._old = None

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._busy = False
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # a unit shorter than one interval
            self._on_timer(None, None)

    def speed(self) -> float:
        """Host speed relative to the reference host (1.0 = as fast)."""
        return REFERENCE_S / statistics.median(self.samples)
