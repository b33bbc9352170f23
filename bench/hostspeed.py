"""Probe of the host's current speed, for host-normalized times.

On a shared host the speed of the same job drifts by 2x within seconds and
by tens of percent over minutes. The probe is a fixed pure-Python loop that
does not touch ``sopgate``; timed just before and just after a job, it
tells how fast the host ran during the job. ``normalized`` rescales a wall
time to a host on which the probe takes ``REFERENCE_S``, so that a time
reads as seconds on a steady host.
"""

import time

LOOP = 300_000
#: Probe time on the host the benchmark was built on, in its fast phases.
REFERENCE_S = 0.020


def probe_s() -> float:
    """Wall time of the fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.perf_counter() - start


def normalized(wall_s: float, probe_before_s: float, probe_after_s: float) -> float:
    """``wall_s`` rescaled to a host whose probe takes ``REFERENCE_S``."""
    return wall_s * REFERENCE_S / (0.5 * (probe_before_s + probe_after_s))
