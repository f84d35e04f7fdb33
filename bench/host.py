"""Host speed reference: a fixed kernel timed between requests.

On a shared host the same request can take 1.5x longer for minutes at a
time, and CPU time slows with wall time, so the host itself runs slower.
A fixed kernel of the same kind of work (a Python loop over small numpy
operations) slows with it.  Scaling each measured time by
``KERNEL_REF_NS / kernel_ns``, with the kernel timed just before, states
the time at the reference host speed: a 40-second window of raw request
times spread 21-26% between windows, the scaled times 2%.

Setup time is mostly the start of a fresh interpreter, which tracks the
kernel poorly: it moved by a third between two sets of runs while the kernel
moved the other way.  Its reference is the start of a bare interpreter
that imports numpy (``start_s``), timed just before.

Neither reference touches specskip, so a change to the program cannot move
them.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# The kernel's time on the reference host (2 vCPUs, Python 3.11, numpy 2.4)
# in its fast phase; scaled times read as raw times there.
KERNEL_REF_NS = 4_400_000

# Requests between two kernel samples take at least this long in total.
KERNEL_EVERY_NS = 50_000_000

# ``start_s`` on the reference host in its fast phase.
START_REF_S = 0.12


def kernel() -> float:
    """Fixed work: 300 rounds of small numpy calls and dict updates."""
    x = np.random.default_rng(0).random(64)
    acc = 0.0
    table = {}
    for i in range(300):
        c = np.cumsum(x)
        j = int(np.searchsorted(c, (i * 0.37) % c[-1]))
        acc += float(x @ x[::-1] / (np.linalg.norm(x) + 1.0)) + j
        table[i % 17] = [acc, j, str(i)]
        x = np.roll(x, 1)
    return acc


def kernel_ns() -> int:
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


def start_s() -> float:
    """Seconds to start a bare interpreter that imports numpy."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.monotonic() - start


class HostClock:
    """Scales measured times to the reference host speed, sampling the
    kernel once at least KERNEL_EVERY_NS of measured time has passed."""

    def __init__(self):
        self.samples: list[int] = []
        self._since = KERNEL_EVERY_NS

    def before(self) -> None:
        """Call before a timed section."""
        if self._since >= KERNEL_EVERY_NS:
            self.samples.append(kernel_ns())
            self._since = 0

    def scale(self, elapsed_ns: int) -> float:
        """Call after it, with its raw duration; returns the scaled one."""
        self._since += elapsed_ns
        return elapsed_ns * self.factor

    @property
    def factor(self) -> float:
        return KERNEL_REF_NS / self.samples[-1]
