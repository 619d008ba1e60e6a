"""A speed probe: a fixed reference kernel timed throughout a run.

On a shared virtual machine the processor's speed for this process changes
while it runs: other guests on the same cores and caches slowed the same
work by up to half again, in spells of seconds to minutes, and CPU time
counts that slowdown like real work.  The probe measures it.  A profiling
timer interrupts the process every ``INTERVAL`` CPU seconds and runs a
fixed kernel, written in the same style as the library (frozen dataclasses
with checks in ``__post_init__``, ``math`` calls, small complex ``numpy``
matrices), once to warm it and once timed.  The mean timed run of the
kernel over a stretch of the run, over ``REFERENCE_S``, is that stretch's
slowdown; dividing a time measured in the stretch by it gives the time at
the reference speed.

The kernel is benchmark code: no change to the library changes its work.
"""

from __future__ import annotations

import contextlib
import math
import signal
from dataclasses import dataclass
from time import perf_counter, thread_time

import numpy as np

INTERVAL = 0.1  # CPU seconds between probes
# the timed kernel's CPU time at the reference speed: about its fastest
# time on the two-vCPU Intel Xeon virtual machine the bounds were set on,
# so scaled times read roughly as CPU times there when it runs uncontended
REFERENCE_S = 1.0e-3
MARGIN = 3  # probes either side of a timed stretch that judge its speed


@dataclass(frozen=True)
class _Point:
    t: float
    x: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError("coordinates must be finite")


_SIGMA = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_EYE = np.eye(2, dtype=complex)


def reference_kernel() -> float:
    acc = 0.0
    p = _Point(0.0, 0.0)
    for i in range(320):
        q = _Point(p.t + 0.01 * math.cosh(i * 1e-3), p.x + 0.01 * math.sinh(i * 1e-3))
        acc += math.sqrt(max((q.t - p.t) ** 2 - (q.x - p.x) ** 2, 0.0))
        p = q
    for k in range(24):
        m = np.kron(_SIGMA * (1.0 + k * 1e-3), _EYE) + np.eye(4)
        acc += float(np.linalg.eigvalsh(m)[0])
    return acc


@dataclass
class Timing:
    """A timed stretch: probe indices at its start and end, CPU seconds of
    the main thread outside the probe, and wall seconds."""

    first: int
    cpu_s: float
    wall_s: float
    last: int = 0


class SpeedProbe:
    """Runs the reference kernel on a profiling timer and keeps its times.

    ``clock()`` is the main thread's CPU time minus the time spent in the
    probe, so a request timed with it does not pay for the probe."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.cost = 0.0

    def _probe(self, signum, frame) -> None:
        start = thread_time()
        reference_kernel()  # warm: the interrupted code left the caches cold
        mid = thread_time()
        reference_kernel()
        end = thread_time()
        self.samples.append(end - mid)
        self.cost += end - start

    def clock(self) -> float:
        return thread_time() - self.cost

    @contextlib.contextmanager
    def timing(self):
        """Times the block: yields a :class:`Timing` filled in on exit."""
        timing = Timing(len(self.samples), self.clock(), perf_counter())
        yield timing
        timing.cpu_s = self.clock() - timing.cpu_s
        timing.wall_s = perf_counter() - timing.wall_s
        timing.last = len(self.samples)

    def slowdown(self, first: int, last: int) -> float:
        """Mean time of probes ``first:last`` over ``REFERENCE_S``."""
        window = self.samples[max(first, 0):last] or self.samples
        return sum(window) / len(window) / REFERENCE_S

    def scaled(self, timing: "Timing") -> float:
        """The timing's CPU time at the reference speed, judged by the
        probes during it and the ``MARGIN`` probes on either side."""
        return timing.cpu_s / self.slowdown(timing.first - MARGIN, timing.last + MARGIN)

    def __enter__(self) -> "SpeedProbe":
        reference_kernel()
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
