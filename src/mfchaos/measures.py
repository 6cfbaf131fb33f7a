"""Empirical measures on the line: Wasserstein-1, total variation, Pinsker.

W1 between empirical measures is computed exactly from order statistics
(in one dimension the optimal coupling is the monotone one), so no LP
solver is involved. Total variation between continuous laws is only
*estimated* (histogram plug-in, biased); the Pinsker inequality is checked
exactly, but only on finite discrete supports where both sides are exact.
"""

from __future__ import annotations

import numpy as np


class EmpiricalMeasure:
    """Uniformly weighted sample set, stored sorted.

    With stacked=True the samples are a (K, n) array of K sample sets, one
    per row; `mean`, `integrate` and `moment` then give (K, 1) columns,
    each row reduced exactly as a set of its own would be.
    """

    __slots__ = ("samples", "_mean")

    def __init__(self, samples, presorted: bool = False, stacked: bool = False):
        arr = np.asarray(samples, dtype=float)
        if not stacked:
            arr = arr.ravel()
        elif arr.ndim != 2:
            raise ValueError(f"a stacked empirical measure needs a (K, n) array, got {arr.shape}")
        if arr.shape[-1] == 0:
            raise ValueError("empirical measure needs at least one sample")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        self.samples = arr if presorted else np.sort(arr, axis=-1)
        self._mean = None

    @property
    def n(self) -> int:
        return self.samples.shape[-1]

    def _average(self, values):
        values = np.asarray(values)
        if self.samples.ndim == 1:
            return float(values.mean())
        return values.mean(axis=1, keepdims=True)

    @property
    def mean(self):
        if self._mean is None:
            self._mean = self._average(self.samples)
        return self._mean

    def integrate(self, f):
        """Mean of f over the samples (f vectorized over ndarray)."""
        return self._average(f(self.samples))

    def moment(self, p: float):
        return self._average(np.abs(self.samples) ** p)

    def __repr__(self) -> str:
        if self.samples.ndim == 2:
            return f"EmpiricalMeasure(rows={self.samples.shape[0]}, n={self.n})"
        return f"EmpiricalMeasure(n={self.n}, mean={self.mean:.4g})"


# size of the scratch buffer of the nested-count W1 kernel
_W1_BLOCK_BYTES = 1 << 20


def w1_sorted_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Exact W1 between row k of xs and row k of ys, for stacks of sorted samples.

    In one dimension W1 is the L1 distance between the quantile functions.
    When the larger count is r times the smaller, order statistic i of the
    smaller row faces order statistics i*r .. i*r+r-1 of the larger, so W1 is
    the mean of those gaps. They are formed a block of rows of about 1 MiB
    at a time, as `np.abs(np.repeat(small, r, axis=1) - big).mean(axis=1)`
    evaluated in place, so the whole stack is never expanded at once. Either
    stack may be a read-only broadcast, such as one reference row repeated
    with `np.broadcast_to` for every row of the other. Counts that do not
    nest use the L1 distance between the two empirical CDFs, row by row.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[0] != ys.shape[0]:
        raise ValueError(f"need two stacks with equal row counts, got {xs.shape} and {ys.shape}")
    rows, n, m = xs.shape[0], xs.shape[1], ys.shape[1]
    if min(n, m) < 1:
        raise ValueError("W1 needs at least one sample per row")
    small, big = (xs, ys) if n <= m else (ys, xs)
    ns, nb = small.shape[1], big.shape[1]
    out = np.empty(rows)
    if nb % ns:
        for k in range(rows):
            allv = np.sort(np.concatenate([xs[k], ys[k]]))
            dx = np.diff(allv)
            cx = np.searchsorted(xs[k], allv[:-1], side="right") / n
            cy = np.searchsorted(ys[k], allv[:-1], side="right") / m
            out[k] = np.sum(np.abs(cx - cy) * dx)
        return out
    r = nb // ns
    block = max(1, _W1_BLOCK_BYTES // (8 * nb))
    for a in range(0, rows, block):
        b = min(a + block, rows)
        gaps = np.repeat(small[a:b], r, axis=1)
        np.subtract(gaps, big[a:b], out=gaps)
        np.abs(gaps, out=gaps)
        out[a:b] = gaps.mean(axis=1)
    return out


def w1_sorted(xs: np.ndarray, ys: np.ndarray) -> float:
    """W1 between empirical measures given pre-sorted sample arrays."""
    return float(w1_sorted_rows(np.reshape(xs, (1, -1)), np.reshape(ys, (1, -1)))[0])


def w1(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact 1-d Wasserstein-1 distance between two empirical measures."""
    return w1_sorted(mu.samples, nu.samples)


class PiecewiseLinearLipschitz:
    """Piecewise-linear test function with all slopes clipped to [-1, 1].

    1-Lipschitz by construction, which is what makes it admissible for the
    dual (adjoint) lower bound on W1.
    """

    __slots__ = ("knots", "values")

    def __init__(self, knots, start_value: float, slopes):
        k = np.asarray(knots, dtype=float)
        s = np.asarray(slopes, dtype=float)
        if k.ndim != 1 or len(k) < 2 or np.any(np.diff(k) <= 0):
            raise ValueError("knots must be strictly increasing, at least two")
        if s.shape != (len(k) - 1,):
            raise ValueError("need one slope per knot interval")
        s = np.clip(s, -1.0, 1.0)
        vals = np.concatenate([[start_value], start_value + np.cumsum(s * np.diff(k))])
        self.knots = k
        self.values = vals

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # constant extension keeps the function 1-Lipschitz
        return np.interp(x, self.knots, self.values)


def w1_dual_lower_bound(mu: EmpiricalMeasure, nu: EmpiricalMeasure, test_functions) -> float:
    """sup over the supplied 1-Lipschitz family of |mu(f) - nu(f)|.

    Always a lower bound for w1(mu, nu) by the dual representation.
    """
    best = 0.0
    for f in test_functions:
        best = max(best, abs(mu.integrate(f) - nu.integrate(f)))
    return best


def empirical_coupling_bound(x, y) -> tuple[float, float]:
    """(w1 of the two empirical measures, mean gap of the given pairing).

    The identity pairing is one admissible coupling, so the first return
    value never exceeds the second; this is asserted.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("need two equal-length 1-d sample arrays")
    value = w1_sorted(np.sort(x), np.sort(y))
    pairing = float(np.abs(x - y).mean())
    assert value <= pairing + 1e-12
    return value, pairing


def freedman_diaconis_width(samples: np.ndarray) -> float:
    """Freedman-Diaconis bin width, with fallbacks for degenerate samples."""
    samples = np.asarray(samples, dtype=float)
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = q75 - q25
    if iqr <= 0:
        spread = samples.max() - samples.min()
        return spread / 10.0 if spread > 0 else 1.0
    return float(2.0 * iqr / len(samples) ** (1.0 / 3.0))


def tv_estimate(mu: EmpiricalMeasure, nu: EmpiricalMeasure, bin_width: float | None = None) -> float:
    """Histogram plug-in estimate of the total variation distance in [0, 1].

    Both sample sets are binned on one shared grid aligned to multiples of
    the bin width. This is a biased estimator (bias grows with bin count
    relative to sample size); it is reported as an estimate, not a distance.
    """
    if bin_width is None:
        bin_width = freedman_diaconis_width(np.concatenate([mu.samples, nu.samples]))
    if not (bin_width > 0):
        raise ValueError(f"bin_width must be positive, got {bin_width!r}")
    lo = min(mu.samples[0], nu.samples[0])
    hi = max(mu.samples[-1], nu.samples[-1])
    first = np.floor(lo / bin_width)
    nbins = int(np.floor(hi / bin_width) - first) + 1
    edges = (first + np.arange(nbins + 1)) * bin_width
    p, _ = np.histogram(mu.samples, bins=edges)
    q, _ = np.histogram(nu.samples, bins=edges)
    return float(0.5 * np.abs(p / mu.n - q / nu.n).sum())


def pinsker_check(p, q, slack: float = 1e-12) -> tuple[float, float, bool]:
    """Exact variation norm, relative entropy and the Pinsker verdict.

    p and q are probability vectors on a shared finite support. Returns
    (var_norm, entropy, holds) where var_norm = sum |p_i - q_i| (the sup
    over |f| <= 1 of the mean gap), entropy = sum q_i log(q_i / p_i), and
    holds is var_norm^2 <= 2 * entropy + slack. If q puts mass where p has
    none the entropy is infinite and the bound holds vacuously.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be probability vectors on a shared support")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not a probability vector")
    var = float(np.abs(p - q).sum())
    if np.any((q > 0) & (p == 0)):
        return var, float("inf"), True
    mask = q > 0
    ent = float(np.sum(q[mask] * np.log(q[mask] / p[mask])))
    return var, ent, var * var <= 2.0 * ent + slack
