"""Wall-clock timing normalized by an interleaved calibration loop.

On a shared host the speed of a Python process drifts by +-20% over tens of
seconds (other tenants on the same cores), which is more than any bound a
regression check could use.  The benchmark therefore times a fixed
pure-Python calibration kernel before, after and every 25 ms during each
batch of library calls, and reports every time scaled to the speed the
kernel had at the reference point: ``normalized = wall * REFERENCE_S /
median kernel_s``.  The raw wall times are printed too.
"""

from __future__ import annotations

import signal
import statistics
import time

# Duration of one kernel run at the reference speed; normalized times read
# as wall time on a machine where the kernel takes exactly this long.
REFERENCE_S = 0.0004

# The kernel's input: the Petersen graph, whose line graph it builds.
_PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


def _kernel() -> int:
    """Graph work in the library's style, kept here so that it never
    changes with the library: build L(Petersen) from edge tuples, then test
    it for 3-connectivity by deleting every set of at most two vertices and
    flooding the rest with bitmasks.  Of the kernels tried, this one tracked
    the library's speed drift most closely."""
    m = len(_PETERSEN)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if set(_PETERSEN[i]) & set(_PETERSEN[j])]
    masks = [0] * m
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    full = (1 << m) - 1
    cuts = [()] + [(v,) for v in range(m)] + [(u, v) for u in range(m) for v in range(u + 1, m)]
    connected = 0
    for cut in cuts:
        allowed = full
        for v in cut:
            allowed &= ~(1 << v)
        comp = allowed & -allowed
        frontier = comp
        while frontier:
            nxt = 0
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                nxt |= masks[v]
            nxt &= allowed & ~comp
            comp |= nxt
            frontier = nxt
        connected += comp == allowed
    return connected


def kernel_seconds(repeats: int = 3) -> float:
    """Median wall time of a few kernel runs."""
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


# Seconds spent in the sampling signal handler so far; timed calls subtract
# the part that fell inside them.
_stolen = 0.0


def stolen() -> float:
    return _stolen


class Batch:
    """Times one batch of calls.  Calibrates on entry, on exit, and every
    TICK_S in between from a SIGALRM handler (the host's speed changes
    within a single two-second call), then turns each raw duration measured
    inside into a normalized one with the median calibration."""

    TICK_S = 0.025

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        global _stolen
        t = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        _stolen += elapsed

    def __enter__(self) -> "Batch":
        self.samples.append(kernel_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_seconds())
        self.factor = REFERENCE_S / statistics.median(self.samples)

    def normalized(self) -> list[float]:
        return [t * self.factor for t in self.raw]
