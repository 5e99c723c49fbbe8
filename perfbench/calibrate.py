"""Machine-speed calibration for timings on a shared, drifting CPU.

On a box whose cores are shared with other tenants, the speed of the same
work drifts by tens of percent over minutes, in CPU time as well as in wall
time.  ``sample`` times, in CPU time, a fixed kernel that uses nothing from
``octfield`` (a pure-Python integer loop plus NumPy complex arithmetic), so a
change to the package cannot change it.  A timing taken next to kernel
samples is scaled to the reference speed:

    normalized = raw * (REFERENCE_S / kernel_seconds) ** elasticity

A single 5 ms sample is itself noisy (about +-20 %), so ``kernel_seconds``
is the geometric mean of the samples from ``WINDOW_S`` before the timed work
starts to ``WINDOW_S`` after it ends, without the highest and lowest tenth
of them.  A mean, not a median, because the speed can change while a long
item runs, and the item's time is the sum over both speeds.

``elasticity`` is how strongly the timed work follows the kernel.  It was
fitted on a 2-core Xeon VM, with CPU-time timings, the fixed malloc
thresholds of ``run.MALLOC_ENV`` and samples taken during items, from 8
passes of the three workloads and 150 interpreter starts whose kernel
samples ranged over 2.7 to 6.4 ms, as the value that left the least
item-to-item and pass-to-pass variation of the same items: 1.0 for
pure-Python work (class-product searches, spelling DPs),
``CONSTRUCT_ELASTICITY`` = 0.8 for ``construct`` calls, whose NumPy grid
work slows less than the interpreter does, and ``SETUP_ELASTICITY`` = 0.75
for interpreter start.  A wrong elasticity only leaves part of the drift
in, or adds some; it cannot favour either side of a comparison, because the
kernel does not depend on the code under test.

``REFERENCE_S`` is the kernel's typical time on that VM; it only sets the
unit, so normalized seconds there read close to raw seconds.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.005
CONSTRUCT_ELASTICITY = 0.8
SETUP_ELASTICITY = 0.75
WINDOW_S = 2.0
_ANGLES = np.linspace(0.0, 1.0, 1 << 14)


def _kernel() -> float:
    s = 0
    for i in range(20000):
        s += (i * i) % 7
    total = float(s)
    for _ in range(4):
        z = np.exp(1j * _ANGLES)
        total += float(np.sum(np.abs(z * z - 1.0)))
    return total


def sample() -> float:
    """Seconds of the calling thread's CPU time the kernel takes now."""
    t0 = time.thread_time()
    _kernel()
    return time.thread_time() - t0


def factor(kernel_seconds: float, elasticity: float = 1.0) -> float:
    """Multiplier taking a raw timing to reference-speed seconds."""
    return (REFERENCE_S / kernel_seconds) ** elasticity


def trimmed_geometric_mean(values: list[float]) -> float:
    """Geometric mean without the highest and lowest tenth of ``values``."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.geometric_mean(values[cut:len(values) - cut])


def normalize(starts: list[float], walls: list[float], times: list[float],
              elasticities: list[float], samples: list[tuple[float, float]]) -> list[float]:
    """Scale item times ``times`` by the (timestamp, kernel seconds)
    ``samples`` taken around them; the items started at ``starts`` and took
    ``walls`` on the same clock as the timestamps.  Samples are in time order
    and at least one precedes the first item and one follows the last."""
    stamps = [t for t, _ in samples]
    out = []
    for start, wall, elapsed, elasticity in zip(starts, walls, times, elasticities):
        lo = bisect.bisect_left(stamps, start - WINDOW_S)
        hi = bisect.bisect_right(stamps, start + wall + WINDOW_S)
        kernel = trimmed_geometric_mean([k for _, k in samples[lo:hi]])
        out.append(elapsed * factor(kernel, elasticity))
    return out
