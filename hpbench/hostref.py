"""Host speed: a fixed pure-Python reference loop timed through a run.

The benchmark runs on shared hosts whose CPU speed drifts by more than
half over minutes while the program stays the same.  A run therefore
times ``kernel()``, a loop that touches nothing of the program, off the
clock after each set-up and every ``EVERY_S`` seconds of its loop, and
scales each phase's end-to-end times by ``NOMINAL_MS / median(kernel
time)`` over that phase: they read as on a host where the kernel takes
``NOMINAL_MS``.  A change to the program cannot move the kernel, so it
moves the scaled times by the same share as the raw ones; the raw times
and the kernel's medians are printed beside them.
"""

from __future__ import annotations

import statistics
import time

#: The kernel's usual median time inside a run on the host the baseline
#: was taken on (2-CPU x86-64 VM, CPython 3.11), so that scaled times
#: read as that host's raw times at its usual speed.
NOMINAL_MS = 3.0
#: Measured seconds between two kernel timings.
EVERY_S = 0.2

_ROUNDS = 30_000


def kernel() -> int:
    """Integer arithmetic in an interpreted loop.  It allocates nothing
    the cyclic collector tracks and its data fits in a few cache lines,
    so neither the program's heap nor what the program left in the CPU
    caches moves its time; only the interpreter's speed on the host
    does.  Of the kernels tried (this loop, building and walking a
    linked list with a dict index, compiling a module, chasing pointers
    through a 1M-entry array), its time followed the workloads' most
    closely as the host's speed changed."""
    total = 0
    for i in range(_ROUNDS):
        total += i * i % 7
    return total


class HostSpeed:
    """Kernel timings taken through one run."""

    def __init__(self):
        self.samples_ms: list[float] = []
        self._last = time.perf_counter()
        self._expected = kernel()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= EVERY_S

    def sample(self) -> float:
        """Time the kernel once; returns the seconds this took."""
        start = time.perf_counter()
        if kernel() != self._expected:
            raise RuntimeError("reference kernel gave a wrong result")
        self._last = time.perf_counter()
        self.samples_ms.append((self._last - start) * 1e3)
        return self._last - start

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    def scale(self) -> float:
        """Factor that turns a raw time into one at nominal speed."""
        return NOMINAL_MS / self.median_ms()
