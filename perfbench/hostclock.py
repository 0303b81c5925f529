"""A clock that counts work at a fixed host speed.

On a shared virtual machine, other tenants slow this process down by up to
80%, in phases that last from seconds to many minutes and switch without
warning. The guest sees no steal time, CPU time tracks wall time, and no
hardware counter is exposed, so no clock of the process's own tells these
phases from a slower program.

This clock does, in part. A wall-clock timer signal runs a fixed probe
(small numpy matmuls like the encoder's, and a pure-Python permutation scan
like the relation code's) every ``INTERVAL_S``, once to bring it into cache
and once timed. Between probes the clock advances at wall speed times
``REFERENCE_S`` / (the median of the last ``WINDOW`` probe times), and it
stands still while a probe runs. So a stretch of work reads as the seconds
it would take on a host that runs the probe in ``REFERENCE_S``: a slow
phase stretches the probe and the work alike, and their ratio moves much
less than either. The probe is fixed code, so a change to the program moves
the readings and a change of host speed mostly does not.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time
from collections import deque

import numpy as np

INTERVAL_S = 0.025
WINDOW = 5
# The probe's fastest time on a 2-vCPU Intel Xeon VM at 2.0 GHz (CPython
# 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31); only a scale for the readings.
REFERENCE_S = 135e-6

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((12, 32))
_W = _rng.standard_normal((32, 32)) * 0.2
_PAIRS = tuple((i, j) for i in range(5) for j in range(i + 1, 5) if (i + j) % 3)


def probe() -> int:
    x = _X
    for _ in range(16):
        x = np.tanh(x @ _W) * 0.5
    hits = 0
    for perm in itertools.islice(itertools.permutations(range(5)), 48):
        pos = {e: k for k, e in enumerate(perm)}
        hits += sum(1 for i, j in _PAIRS if pos[i] < pos[j])
    return hits


class HostClock:
    """``now()`` in reference seconds while started; see the module doc."""

    def __init__(self):
        self.probe_s: list[float] = []
        self._recent: deque = deque(maxlen=WINDOW)
        # (reading at `last`, perf_counter at the end of the last probe,
        # reference seconds per wall second); replaced as one object, so a
        # reader never sees half an update.
        self._state = (0.0, time.perf_counter(), 1.0)
        self._busy = False
        self._previous = None

    def _probe(self) -> None:
        reading, last, scale = self._state
        stop = time.perf_counter()
        probe()  # untimed: brings the probe's code and data back into cache
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.probe_s.append(end - start)
        self._recent.append(end - start)
        new_scale = REFERENCE_S / statistics.median(self._recent)
        self._state = (reading + (stop - last) * scale, end, new_scale)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._probe()
        finally:
            self._busy = False

    def start(self) -> None:
        self._busy = True
        for _ in range(WINDOW):
            self._probe()
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def now(self) -> float:
        while True:
            state = self._state
            wall = time.perf_counter()
            if state is self._state:
                reading, last, scale = state
                return reading + (wall - last) * scale
