"""Host-speed probe: reports times at a fixed reference host speed.

On a shared VM the same code runs 1.5x slower in one hour than in the
next, and flips between a fast and a slow state every few seconds,
because other tenants load the physical cores.  Raw wall time then
spreads more across runs than any useful bound allows.  The probe times
a fixed mix of interpreter and NumPy work that does not touch the
program under test: before the first pass, after every pass, and once a
second *during* each pass (:class:`PassProbe`).  A pass's time, less
the probe's own time, is rescaled by ``REFERENCE_S / mean(probes)``.
Program changes move the pass time but never the probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

#: Probe seconds that define reference speed (about a lightly loaded
#: 2 GHz Xeon vCPU).  It only scales the reported numbers.
REFERENCE_S = 0.02


def _mix() -> None:
    # Interpreter work like the scalar pipeline: small-int arithmetic,
    # dict and list traffic.
    table, acc = {}, 0
    for i in range(40_000):
        table[i & 255] = acc
        acc = (acc + i * 7) % 1_000_003
    ring = [0] * 64
    for i in range(40_000):
        ring[i & 63] += 1
    # Many tiny NumPy operations, like the batch kernel's ring updates.
    rows = np.arange(16)
    state = np.zeros((16, 32))
    for i in range(1_500):
        state[rows, i & 31] += 1.0
    # Streaming over medium arrays, like the sweep engine's blocks.
    column = np.linspace(0.0, 1.0, 100_000)
    for _ in range(20):
        column = np.sqrt(column * column + 1.0) - 0.5


def probe_seconds(repeats: int = 12) -> float:
    """Mean time of the fixed probe mix on this host over about 0.25 s.

    A mean, not a median: the host's speed flips between a fast and a
    slow state every few seconds, and a pass is slowed by the time it
    spends in each, so the probe averages over the flips as well.
    """
    start = time.perf_counter()
    for _ in range(repeats):
        _mix()
    return (time.perf_counter() - start) / repeats


class PassProbe:
    """Samples the probe mix once every ``interval_s`` of a timed pass.

    A ``SIGALRM`` interval timer runs one probe mix in the main thread
    between bytecodes; ``spent_s`` is the time those samples took, which
    the caller subtracts from the pass.
    """

    def __init__(self, interval_s: float = 1.0):
        self.interval_s = interval_s
        self.samples: List[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _mix()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent_s += took

    def __enter__(self) -> "PassProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def to_reference(seconds: float, *probes: float) -> float:
    """``seconds`` measured while the probe took ``probes``, rescaled to
    reference speed."""
    return seconds * REFERENCE_S / statistics.mean(probes)
