"""Pure helpers for the benchmark's statistics: percentiles, spreads, self time.

Nothing here imports the program under test, so the helpers can be tested
(``python3 -m pytest perfbench``) without running a simulation.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def samples_needed(percentile: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples above ``percentile``."""
    share = 1.0 - percentile / 100.0
    return math.ceil(round(beyond / share, 6))


def highest_tail_percentile(count: int, beyond: int = MIN_BEYOND) -> float | None:
    """The highest of ``TAIL_PERCENTILES`` with ``beyond`` samples above it.

    Returns ``None`` when ``count`` samples do not leave ``beyond`` samples
    above even the median.
    """
    best = None
    for percentile in TAIL_PERCENTILES:
        if count >= samples_needed(percentile, beyond):
            best = percentile
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' method) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample (0.0 for an empty one)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)``, the same rule the
    benchmark's acceptance check applies to ten runs.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children are clipped to the interval first, so a child that overlaps
    another child, or sticks out of its parent, is never counted twice.
    """
    start, end = interval
    clipped = sorted((max(start, s), min(end, e)) for s, e in children
                     if min(end, e) > max(start, s))
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(interval: Tuple[float, float],
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its children cover."""
    return (interval[1] - interval[0]) - covered(interval, children)

