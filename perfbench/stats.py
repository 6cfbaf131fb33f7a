"""Arithmetic shared by run.py and its self-test.

Kept free of numpy so run.py stays light: only the child processes it
starts import the program under test.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10   # samples a reported high percentile needs beyond it


def percentile(values, q: float) -> float:
    """Linearly interpolated q-quantile (0 <= q <= 1), numpy's default rule."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q!r} outside [0, 1]")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the q-quantile's rank."""
    return n - math.ceil(q * n)


def high_percentile(values, q: float):
    """The q-quantile, or None when fewer than MIN_BEYOND samples lie beyond
    it: a tail estimate resting on a handful of samples is not reported."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap (threads), so their union is subtracted, never
    their sum; the result is never negative.
    """
    return (end - start) - covered(child_intervals, start, end)
