"""A fixed pure-Python loop that measures how fast the host runs right now.

The benchmark's machine is shared, and its speed drifts by tens of percent
over seconds and by up to twice over minutes, so an op's best time in one
30-second run can be 30% above its best time in the next.  ``run.py``
therefore times this loop about ten times a second between ops and scales
the run's times by ``NOMINAL_S`` over the loop's time in the run (see
``run.host_factor``): the times it reports are those the host would give
at the speed where this loop takes ``NOMINAL_S``.  A change to the library
moves the ops' times but not this loop's, so it shows in full.

The loop does what the library's hot paths do, on objects of its own:
``Fraction`` arithmetic and comparisons, small dicts, sets and tuples, bit
tricks on subset masks, sorting, string formatting and JSON.  It imports
nothing from the library.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction

# about the loop's time between ops on a lightly loaded 2-vCPU x86_64 host
# under CPython 3.11; any fixed value would do, this one keeps the reported
# times near the measured ones on such a host
NOMINAL_S = 0.002


def kernel() -> int:
    """The calibration loop; returns a checksum so nothing is optimized
    away and a broken interpreter shows."""
    n = 7
    values = {}
    for mask in range(1 << n):
        values[mask] = Fraction(mask.bit_count() * 7 % 11, 10)
    total = Fraction(0)
    for mask, value in values.items():
        rest = mask
        while rest:
            bit = rest & -rest
            if values[mask ^ bit] > value:
                total += value - values[mask ^ bit]
            rest ^= bit
    ranked = sorted(values.items(), key=lambda item: (item[1], -item[0]))
    record = {"{" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}": f"{value}"
              for mask, value in ranked}
    text = json.dumps(record)
    seen = {(len(key), value) for key, value in json.loads(text).items()}
    return len(seen) + total.denominator


CHECKSUM = kernel()


def seconds() -> float:
    """One timed run of the loop, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = kernel()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != CHECKSUM:
        raise RuntimeError(f"calibration loop returned {result}, expected {CHECKSUM}")
    return elapsed
