"""Wall-clock helpers for the speed floors in ``benchmarks/test_perf_*.py``.

A floor times the library path against a slower reference on the same
inputs and asserts the ratio of their best-of times.  Best-of is the
robust statistic for a latency ratio: the minimum is the run least
disturbed by the host.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional


def best_of(
    fn: Callable[[], Any],
    repeat: int = 3,
    warmup: int = 1,
    before: Optional[Callable[[], Any]] = None,
) -> float:
    """Best-of-``repeat`` wall time of ``fn()``, seconds.

    ``warmup`` untimed calls come first; ``before()``, when given, runs
    untimed ahead of every timed call.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        if before is not None:
            before()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def speedup(
    reference: Callable[[], Any], path: Callable[[], Any], repeat: int = 3
) -> float:
    """Best-of time of ``reference()`` over best-of time of ``path()``."""
    return best_of(reference, repeat=repeat) / best_of(path, repeat=repeat)
