"""Reference clock: times measured against the CPU speed of the moment.

On a shared host the benchmark's CPU runs up to half again slower whenever
other tenants load the core it shares, in bursts from milliseconds to
minutes.  Wall times then swing by a quarter between runs of the same code,
however many operations a run takes.  So while a timed region runs, SIGALRM
fires every ``PERIOD_S`` of wall time and its handler, in the main thread
between two bytecodes of whatever runs, times a fixed pure-Python kernel of
integer arithmetic and float formatting.  A region's time, less the
handler's own time, divided by the mean kernel time sampled inside it and
multiplied by ``KERNEL_S``, is the time the region would take on a CPU that
runs the kernel in ``KERNEL_S``: a time at reference speed, which the
neighbours' load moves far less than the wall time.  ``KERNEL_S`` is about
the kernel's time on an idle core of a 2-vCPU Xeon (Sapphire Rapids) VM, so
reference-speed times read close to wall times on that machine when it is
quiet.

Signals reach only the main thread, so a program that ran Python threads
next to it would stretch the kernel samples; clarkekit is single-threaded.
"""

from __future__ import annotations

import contextlib
import signal
import time

PERIOD_S = 0.01
KERNEL_S = 2.5e-4
# Kernels tried against the slowdown of repeated identical operations:
# integer arithmetic, float formatting, small numpy operations, random reads
# from a large list and small matrix products.  Integer arithmetic plus float
# formatting tracked it best over the three workloads, under light and heavy
# load alike.
KERNEL_LOOPS = 2000
KERNEL_FLOATS = [k / 7.0 for k in range(1, 61)]
KERNEL_ROUNDS = 4


def kernel() -> int:
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i
    for _ in range(KERNEL_ROUNDS):
        total += len(",".join([repr(x) for x in KERNEL_FLOATS]))
    return total


class ReferenceClock:
    """Samples the kernel every ``PERIOD_S`` while running."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.sampling = False

    def sample(self, *_) -> None:
        if self.sampling:  # a stalled sample was interrupted by the next signal
            return
        self.sampling = True
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        self.sampling = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class Region:
    """Wall time and kernel samples of the ``with region():`` blocks it
    times; the handler's time inside them is not counted."""

    def __init__(self, clock: ReferenceClock | None = None):
        self.clock = clock
        self.wall_s = 0.0
        self.kernel_s: list[float] = []

    @contextlib.contextmanager
    def __call__(self):
        clock = self.clock
        first, spent = (len(clock.samples), clock.spent) if clock else (0, 0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start
            if clock:
                self.wall_s -= clock.spent - spent
                self.kernel_s += clock.samples[first:]

    def reference_s(self) -> float:
        """The blocks' time at reference speed (needs a clock)."""
        if not self.kernel_s:
            self.clock.sample()
            self.kernel_s.append(self.clock.samples[-1])
        return self.wall_s * KERNEL_S * len(self.kernel_s) / sum(self.kernel_s)
