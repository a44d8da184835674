"""A fixed reference kernel that times the host's current speed.

The host this benchmark was written on runs the same Python code at speeds
that differ by up to 1.6 times, switching within fractions of a second
(another tenant on the same cores). Process CPU time moves with wall time,
so it does not help. The benchmark therefore times this kernel between
every two operations and scales each operation's latency by the kernel's
time next to it: latencies are reported as they would read on a host where
the kernel takes REFERENCE_NS.

The kernel does the kind of work the library does (small frozen
dataclasses validated on creation, float maths, short sorted lists) and
never calls the library, so no change to the library moves it.
"""

import math
import time
from dataclasses import dataclass

# The kernel's time, warm, on the 2-core host the benchmark was written on,
# in its faster state. A fixed number: it only sets the unit of the scaled
# times.
REFERENCE_NS = 12_000


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("coordinates must be finite")


def _kernel() -> float:
    step = 2.0 * math.pi / 8
    points = [_Point(math.cos(step * k), math.sin(step * k)) for k in range(8)]
    spread = 0.0
    for origin in (_Point(0.3, -0.2), _Point(-0.1, 0.4)):
        distances = sorted(math.hypot(p.x - origin.x, p.y - origin.y) for p in points)
        spread += sum(abs(a - b) for a, b in zip(distances, distances[1:]))
    return spread


def reference_ns(clock=time.perf_counter_ns) -> int:
    """One timed run of the kernel, in ns. An untimed run goes first: right
    after a library call the first run is two to three times slower, as
    caches refill, and by a varying amount."""
    _kernel()
    started = clock()
    _kernel()
    return clock() - started
