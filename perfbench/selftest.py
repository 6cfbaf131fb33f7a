"""Self-test of the benchmark's own arithmetic: percentiles and self time.

    python3 perfbench/selftest.py

Exits 0 and prints "ok" when every check holds.
"""

from __future__ import annotations

import random
import statistics
import sys

from stats import covered, high_percentile, median, percentile, samples_beyond, self_time


def expect(cond: bool) -> None:
    """A check that also holds under `python -O`, which strips asserts."""
    if not cond:
        raise AssertionError("self-test check failed")


def check_percentiles() -> None:
    expect(percentile([3.0], 0.9) == 3.0)
    expect(median([1, 2, 3, 4]) == 2.5)
    expect(percentile([10, 20, 30, 40, 50], 0.25) == 20)
    expect(percentile([0, 10], 0.9) == 9.0)
    rnd = random.Random(5)
    xs = [rnd.random() for _ in range(101)]
    expect(percentile(xs, 0.5) == statistics.median(xs))
    # numpy's default rule is statistics.quantiles' "inclusive" method
    q = statistics.quantiles(xs, n=10, method="inclusive")
    expect(abs(percentile(xs, 0.9) - q[8]) < 1e-15)
    # a tail estimate needs at least ten samples beyond it
    expect(samples_beyond(140, 0.9) == 14 and high_percentile(list(range(140)), 0.9) is not None)
    expect(samples_beyond(99, 0.9) == 9 and high_percentile(list(range(99)), 0.9) is None)
    expect(high_percentile(list(range(100)), 0.9) == percentile(list(range(100)), 0.9))
    try:
        percentile([], 0.5)
    except ValueError:
        pass
    else:
        raise AssertionError("empty sample accepted")


def check_self_time() -> None:
    # no children: the whole span
    expect(self_time(0, 10, []) == 10)
    # disjoint children are subtracted
    expect(self_time(0, 10, [(1, 3), (5, 6)]) == 7)
    # overlapping children (two threads) are subtracted once, as a union
    expect(self_time(0, 10, [(1, 5), (3, 7)]) == 4)
    # a child reaching past the parent only counts inside it
    expect(self_time(0, 10, [(8, 15), (-2, 1)]) == 7)
    # nested or repeated children never drive self time below zero
    expect(self_time(0, 10, [(0, 10), (2, 4), (0, 10)]) == 0)
    expect(covered([(4, 4), (6, 5)], 0, 10) == 0)


def main() -> int:
    check_percentiles()
    check_self_time()
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
