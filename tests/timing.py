"""Timing for the tests that bound how a cost grows with its input, or how
much faster one implementation is than another."""

from __future__ import annotations

import gc
import statistics
import time
from collections.abc import Callable


def seconds(call: Callable[[], object]) -> float:
    """Wall time of call(), with the cyclic collector off: a collection
    triggered by earlier allocations would be charged to whichever call
    happens to run when it fires."""
    gc.disable()
    try:
        start = time.perf_counter()
        call()
        return time.perf_counter() - start
    finally:
        gc.enable()


def median_ratio(
    numerator: Callable[[], object], denominator: Callable[[], object], pairs: int = 7
) -> float:
    """Median over pairs of the time of numerator() over that of
    denominator(), after one untimed call of denominator().  The two calls
    alternate and each pair is compared on its own, so a slow spell on a
    shared machine slows both sides of a pair."""
    denominator()
    return statistics.median(seconds(numerator) / seconds(denominator) for _ in range(pairs))


def size_ratio(run: Callable[[object], object], small: object, large: object) -> float:
    """median_ratio of run(large) over run(small)."""
    return median_ratio(lambda: run(large), lambda: run(small))
