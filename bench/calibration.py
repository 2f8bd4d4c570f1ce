"""Machine-speed calibration for the benchmark's timings.

The benchmark was built on a 2-vCPU virtual machine whose cores are shared
with other tenants.  There, the same work runs up to twice as fast in one
stretch of a few minutes as in the next.  CPU time drifts the same way as
wall time, so it does not help.  Between identical runs that drift is far
wider than the bounds a benchmark can allow.

Every timing is therefore taken together with this fixed calibration loop:
exact `fractions.Fraction` arithmetic from the standard library, the same
kind of work varsign does, which no change to varsign can speed up or slow
down.  A time t is reported as t * REFERENCE_S / c, where c is the loop's
time measured around t.  That is the time t would have taken at the speed at
which the loop takes REFERENCE_S seconds: roughly the quiet speed of the
machine the baseline was taken on.  On that machine the spread of the
timings over ten seeds (interquartile range over median) drops from
0.14-0.43 to 0.02-0.10.  The unscaled wall-clock figures are printed next to
the scaled ones.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

# Loop time (best of REPEATS) on the baseline machine in a quiet stretch.
REFERENCE_S = 0.004
REPEATS = 3


def _loop():
    x, q = Fraction(0), Fraction(1, 3)
    for i in range(1, 600):
        x += Fraction(i % 97, i) * q
        q *= Fraction(i + 1, i + 2)
    return x


def seconds() -> float:
    """Best-of-REPEATS time of the calibration loop, with the garbage
    collector paused so that a collection of the caller's objects does not
    land inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into
    reference time."""
    return REFERENCE_S / ((before + after) / 2)
