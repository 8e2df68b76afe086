"""Host-speed calibration for timings taken on a shared machine.

On a host whose cores are shared with other machines, the same pass of
pure-Python work runs 20-40 % slower for minutes at a time, in CPU time
as much as in wall time, so neither clock alone can tell a slower program
from a busier host.  This module measures the host's speed while the
work runs and scales the work's time to a fixed reference speed:

    scaled = (time - time spent calibrating) * REFERENCE_S / mean(snippet time)

While a ``Sampler`` is active, a SIGALRM every ``INTERVAL_S`` of wall time
runs ``snippet()``, a fixed piece of pure-Python work, between two
bytecodes of the program and records how long it took.  The snippet's
mean time over the pass is the host's speed over the pass, sampled
uniformly in time.  A change to the program changes the pass time but not
the snippet's, so it shows in the scaled time in full.

Set-up time, spent in child interpreters that cannot be sampled, is
scaled by the median factor of the passes just before it.
"""

from __future__ import annotations

import signal
import time

# what one snippet takes on the reference host; scaled times are in
# seconds of that host
REFERENCE_S = 100e-6
INTERVAL_S = 0.005


def snippet() -> int:
    """A fixed piece of dict and integer work, about 0.1 ms."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(400):
        table[i & 63] = acc
        acc = ((i * i) % 7 + table.get(i >> 3, 0)) & 0xFFFF
    return acc


class Sampler:
    """Runs the snippet on a timer while active (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # wall time of each snippet
        self.cpu = 0.0  # CPU time of all snippets

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        snippet()
        self.samples.append(time.perf_counter() - t0)
        self.cpu += time.process_time() - c0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Reference speed over the host's speed while sampling."""
        if not self.samples:  # shorter than one interval: nothing to scale by
            return 1.0
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    def scale(self, wall: float, cpu: float) -> tuple[float, float]:
        """(wall, cpu) of the sampled work without the snippets, in
        seconds of the reference host."""
        return (wall - sum(self.samples)) * self.factor(), (cpu - self.cpu) * self.factor()
