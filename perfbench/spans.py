"""Span arithmetic and summary statistics.

Spans are the program's serialized span dicts (``span_id``,
``parent_id``, ``site``, ``t0``, ``t1`` in seconds), whether recorded
by the program's own sites or by the benchmark's outside wrappers.  A
span's *self time* is its duration minus the part of it that its
children cover; children may overlap each other (parallel pool rows,
spans from two processes), so their intervals are merged first.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> dict[str, float]:
    """``span_id -> self time`` for every span."""
    children = defaultdict(list)
    for span in spans:
        if span.get("parent_id") is not None:
            children[span["parent_id"]].append((span["t0"], span["t1"]))
    return {
        span["span_id"]: max(
            0.0,
            span["t1"] - span["t0"]
            - covered(children.get(span["span_id"], ()), span["t0"], span["t1"]),
        )
        for span in spans
    }


def by_site(spans) -> dict[str, dict[str, float]]:
    """Per site: ``calls``, inclusive ``total_s`` and ``self_s``."""
    selfs = self_times(spans)
    sites: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        site = sites[span["site"]]
        site["calls"] += 1
        site["total_s"] += span["t1"] - span["t0"]
        site["self_s"] += selfs[span["span_id"]]
    return dict(sites)


#: Sub-points per order-statistic interval in the Harrell-Davis weights.
_HD_POINTS = 8


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def quantile(values, q: float, default: float = 0.0) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with Beta((n+1)q,
    (n+1)(1-q)) weights concentrated around rank ``qn``.  Where the
    sample has gaps (per-output times of a fixed table are a few dozen
    distinct values), the plain sample quantile jumps from one value to
    its neighbour when two samples swap places; this estimate moves
    smoothly, so run-to-run noise shrinks while the quantity estimated
    stays the same.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return default
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = n * _HD_POINTS
    weights = [0.0] * n
    for k in range(steps):
        # Midpoint rule for the Beta density over ((i-1)/n, i/n).
        x = (k + 0.5) / steps
        weights[k // _HD_POINTS] += math.exp(
            (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_norm
        )
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def p50(values, default: float = 0.0) -> float:
    """Median, by :func:`quantile`."""
    return quantile(values, 0.5, default)


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile that still
    has :data:`TAIL_BEYOND` samples beyond it (the maximum when there
    are too few samples for that), estimated by :func:`quantile`."""
    n = len(values := list(values))
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return max(values), 100.0, n
    q = (n - TAIL_BEYOND) / n
    return quantile(values, q), 100.0 * q, n

