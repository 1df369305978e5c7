"""The host's current speed, from a fixed pure-Python loop.

The measuring host switches between fast and slow states, often within
a second or two, and the slow state slows any Python code by up to
about 1.6x: the solver and a fixed loop alike, though the solver by a
little less.  The benchmark therefore runs ``calibrate`` between
requests and scales each request's time by ``REF_S`` over the loop's
time around it: a scaled time is the request's time at the speed the
loop had when ``REF_S`` was fixed.  The loop uses no omtq code, so a
change to the solver moves scaled times as it moves raw ones.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# about the loop's time on the reference host (2-vCPU Xeon VM at 2.1 GHz,
# Python 3.11) in its slow state, the more common one; in its fast
# state the loop takes about 6 ms
REF_S = 0.010

# loop iterations; about REF_S on the reference host
ROUNDS = 900


def _loop() -> tuple:
    """Fraction arithmetic, dict updates, list indexing and method calls,
    the operations the solver's layers are made of."""
    acc = Fraction(0)
    table: dict[int, int] = {}
    cells = list(range(64))
    trail: list[int] = []
    for i in range(ROUNDS):
        q = Fraction(i % 7 + 1, i % 5 + 2)
        acc = acc + q * q - q
        if acc > 4:
            acc -= 4
        key = (i * 37) & 255
        table[key] = table.get(key, 0) + cells[i & 63]
        trail.append(key)
        if len(trail) > 32:
            del trail[16:]
    return acc, sum(table.values()), len(trail)


EXPECTED = _loop()


def calibrate() -> float:
    """Seconds the fixed loop takes now, with the garbage collector off so
    that the solver's heap does not bear on it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = _loop()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError("calibration loop gave a different result")
    return elapsed


def factors(cals: list[float], segments: list[int]) -> list[float]:
    """For each request, ``REF_S`` over the mean of the calibrations just
    before and just after it; ``segments[i]`` is the index of the last
    calibration made before request ``i``.  The host changes state within
    a second or two, so the nearest calibrations track it best: wider
    windows widened the spread across seeds."""
    return [2 * REF_S / (cals[k] + cals[k + 1]) for k in segments]
